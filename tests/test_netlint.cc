/**
 * @file
 * Tests for the whole-circuit static analyzer (circuit/analyze.h):
 * every diagnostic code tripped by a deliberately defective circuit,
 * the four injected-defect canaries the roadmap pins (dead gate,
 * width-mismatched plan port, combinational cycle, duplicated CLNK
 * tweak), the cost report, the lint-attaching Bristol reader, and the
 * Session::compile() stats attachment.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "chain/link.h"
#include "chain/workloads.h"
#include "circuit/analyze.h"
#include "circuit/bristol.h"
#include "circuit/builder.h"
#include "circuit/optimize.h"
#include "circuit/stdlib.h"
#include "workloads/vip.h"

namespace haac {
namespace {

/** g0 XOR e0, one output — the smallest clean two-party netlist. */
Netlist
tinyXor()
{
    CircuitBuilder cb;
    const Wire g = cb.garblerInput();
    const Wire e = cb.evaluatorInput();
    cb.addOutput(cb.xorGate(g, e));
    return cb.build();
}

/** A small clean plan: ADD:4 over garbler+evaluator words. */
chain::ChainPlan
tinyPlan()
{
    chain::ChainPlan plan;
    plan.name = "test-add4";
    plan.garblerInputs = 4;
    plan.evaluatorInputs = 4;
    plan.nodes.push_back({chain::ComponentKind::Add, 4});
    std::vector<chain::InputSource> s;
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::garbler(i));
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::evaluator(i));
    plan.sources.push_back(std::move(s));
    for (uint32_t i = 0; i < 4; ++i)
        plan.outputs.push_back({0, i});
    return plan;
}

uint32_t
countCode(const CircuitLintReport &rep, DiagCode code)
{
    uint32_t n = 0;
    for (const Diagnostic &d : rep.diags)
        n += d.code == code ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Clean circuits
// ---------------------------------------------------------------------

TEST(Netlint, CleanCircuitHasNoFindingsAndACostReport)
{
    CircuitBuilder cb;
    const Bits a = cb.garblerInputs(4);
    const Bits b = cb.evaluatorInputs(4);
    cb.addOutputs(addBits(cb, a, b));
    // The frontend adder leaves a dead carry tail (the optimizer's
    // job); the *optimized* netlist is the analyzer-clean form.
    const Netlist nl = optimizeNetlist(cb.build());

    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.errors, 0u);
    EXPECT_EQ(rep.warnings, 0u);
    EXPECT_TRUE(rep.diags.empty());
    EXPECT_EQ(rep.summary(), "0 errors, 0 warnings");
    EXPECT_EQ(rep.firstError(), "");

    EXPECT_EQ(rep.cost.gates, nl.numGates());
    EXPECT_EQ(rep.cost.andGates, nl.numAndGates());
    EXPECT_EQ(rep.cost.xorGates, nl.numGates() - nl.numAndGates());
    EXPECT_GT(rep.cost.multDepth, 0u);
    // A ripple adder's AND chain is its depth: one AND per carry.
    EXPECT_LE(rep.cost.multDepth, rep.cost.andGates);
    EXPECT_NEAR(rep.cost.freeXorPercent,
                100.0 * double(rep.cost.xorGates) /
                    double(rep.cost.gates),
                1e-9);
}

TEST(Netlint, CircuitCostMatchesAnalyzeNetlist)
{
    const Netlist nl = vipWorkload("Hamm", false).netlist;
    const CircuitCost cost = circuitCost(nl);
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_EQ(cost.gates, rep.cost.gates);
    EXPECT_EQ(cost.andGates, rep.cost.andGates);
    EXPECT_EQ(cost.multDepth, rep.cost.multDepth);
    EXPECT_EQ(cost.freeXorPercent, rep.cost.freeXorPercent);
}

// ---------------------------------------------------------------------
// Canary 1 (roadmap): a dead gate must trip dead-gate
// ---------------------------------------------------------------------

TEST(Netlint, CanaryDeadGateIsCaught)
{
    CircuitBuilder cb(/*fold_constants=*/false);
    const Wire g = cb.garblerInput();
    const Wire e = cb.evaluatorInput();
    const Wire live = cb.andGate(g, e);
    (void)cb.andGate(e, live); // feeds nothing
    cb.addOutput(live);
    const Netlist nl = cb.build();

    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::DeadGate));
    EXPECT_EQ(countCode(rep, DiagCode::DeadGate), 1u);

    // The optimizer drops it; the analyzer then has nothing to say —
    // the referee agrees with the pass it referees.
    const CircuitLintReport after = analyzeNetlist(optimizeNetlist(nl));
    EXPECT_FALSE(after.has(DiagCode::DeadGate));
}

// ---------------------------------------------------------------------
// Canary 2 (roadmap): width-mismatched ChainPlan port
// ---------------------------------------------------------------------

TEST(Netlint, CanaryPlanPortWidthMismatchIsCaught)
{
    chain::ChainPlan plan = tinyPlan();
    plan.sources[0].pop_back(); // 7 sources for an 8-bit ADD:4
    const CircuitLintReport rep = analyzeChainPlan(plan);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::PortWidthMismatch));
    // ChainPlan::check() is the same analysis, first error only.
    EXPECT_EQ(plan.check(), rep.firstError());
    EXPECT_NE(plan.check(), "");
}

// ---------------------------------------------------------------------
// Canary 3 (roadmap): combinational cycle / use-before-def
// ---------------------------------------------------------------------

TEST(Netlint, CanaryCombinationalCycleIsCaught)
{
    // Canonical netlists make a cycle expressible only as an operand
    // at/after the gate's own output wire; corrupt one by hand.
    Netlist nl = tinyXor();
    ASSERT_EQ(nl.numGates(), 1u);
    nl.gates[0].a = nl.outputWireOf(0); // gate 0 reads its own output
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::UseBeforeDef));
    EXPECT_NE(rep.firstError().find("combinational cycle"),
              std::string::npos);
    // Structural errors must suppress the dataflow cost report.
    EXPECT_EQ(rep.cost.gates, 0u);
}

// ---------------------------------------------------------------------
// Canary 4 (roadmap): duplicated CLNK link tweak
// ---------------------------------------------------------------------

/** Two chained ADD:4 nodes → one link port per result bit (+carry). */
chain::ChainPlan
twoNodePlan()
{
    chain::ChainPlan plan = tinyPlan();
    plan.nodes.push_back({chain::ComponentKind::Add, 4});
    std::vector<chain::InputSource> s;
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::link(0, i));
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::garbler(i));
    plan.sources.push_back(std::move(s));
    plan.outputs.clear();
    for (uint32_t i = 0; i < 4; ++i)
        plan.outputs.push_back({1, i});
    return plan;
}

TEST(Netlint, CanaryDuplicatedLinkTweakIsCaught)
{
    const chain::ChainPlan plan = twoNodePlan();
    ASSERT_EQ(plan.numLinks(), 4u);

    // The derived assignment is collision-free by construction...
    EXPECT_TRUE(analyzeChainPlan(plan).clean());

    // ...so inject one: two links sharing a tweak collapse their
    // encryption domains, the chain-layer twin of ISA tweak reuse.
    std::vector<uint64_t> tweaks = chain::planLinkTweaks(plan);
    ASSERT_EQ(tweaks.size(), 4u);
    tweaks[2] = tweaks[0];
    CircuitLintOptions opts;
    opts.linkTweaks = &tweaks;
    const CircuitLintReport rep = analyzeChainPlan(plan, opts);
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::LinkTweakReuse));
    EXPECT_NE(rep.firstError().find("encryption domains"),
              std::string::npos);
}

TEST(Netlint, OutOfDomainLinkTweakIsCaught)
{
    const chain::ChainPlan plan = twoNodePlan();
    std::vector<uint64_t> tweaks = chain::planLinkTweaks(plan);
    tweaks[1] = 0x1234; // outside the CLNK tag space
    CircuitLintOptions opts;
    opts.linkTweaks = &tweaks;
    const CircuitLintReport rep = analyzeChainPlan(plan, opts);
    EXPECT_TRUE(rep.has(DiagCode::LinkTweakDomain));
}

TEST(Netlint, PlanLinkTweaksAreTheCanonicalAssignment)
{
    const chain::ChainPlan plan = twoNodePlan();
    const std::vector<uint64_t> tweaks = chain::planLinkTweaks(plan);
    ASSERT_EQ(tweaks.size(), plan.numLinks());
    for (uint64_t i = 0; i < tweaks.size(); ++i) {
        EXPECT_EQ(tweaks[i], chain::linkTweakOf(i));
        EXPECT_EQ(tweaks[i] >> 32, chain::kChainLinkTweakBase >> 32);
    }
}

// ---------------------------------------------------------------------
// Netlist error codes
// ---------------------------------------------------------------------

TEST(Netlint, WireOutOfRangeIsCaught)
{
    Netlist nl = tinyXor();
    nl.gates[0].b = nl.numWires() + 7;
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.has(DiagCode::WireOutOfRange));
    EXPECT_FALSE(rep.clean());
}

TEST(Netlint, DanglingOutputIsCaught)
{
    Netlist nl = tinyXor();
    nl.outputs.push_back(nl.numWires() + 1);
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.has(DiagCode::DanglingOutput));
    // The diag's site is the *output index*, not a gate index.
    for (const Diagnostic &d : rep.diags)
        if (d.code == DiagCode::DanglingOutput)
            EXPECT_EQ(d.site, 1u);
}

TEST(Netlint, MisplacedConstOneIsCaught)
{
    Netlist nl = tinyXor();
    nl.constOne = 0; // canonical form requires it LAST among inputs
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.has(DiagCode::InputShape));
}

// ---------------------------------------------------------------------
// Netlist warning codes
// ---------------------------------------------------------------------

TEST(Netlint, UnusedInputIsCaught)
{
    CircuitBuilder cb;
    const Wire g = cb.garblerInput();
    (void)cb.evaluatorInput(); // never read
    const Wire e2 = cb.evaluatorInput();
    cb.addOutput(cb.andGate(g, e2));
    const CircuitLintReport rep = analyzeNetlist(cb.build());
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(countCode(rep, DiagCode::UnusedInput), 1u);

    CircuitLintOptions quiet;
    quiet.warnings = false;
    EXPECT_TRUE(analyzeNetlist(cb.build(), quiet).diags.empty());
}

TEST(Netlint, ConstantConeIsCaught)
{
    // xor(e, e) is statically 0 even though e itself is secret; fold
    // suppression keeps the builder from removing it.
    CircuitBuilder cb(/*fold_constants=*/false);
    const Wire g = cb.garblerInput();
    const Wire e = cb.evaluatorInput();
    const Wire zero = cb.xorGate(e, e);
    cb.addOutput(cb.xorGate(g, zero));
    const CircuitLintReport rep = analyzeNetlist(cb.build());
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::ConstantCone));
}

TEST(Netlint, DuplicateGateMatchesOptimizerCriterion)
{
    CircuitBuilder cb(/*fold_constants=*/false);
    const Wire g = cb.garblerInput();
    const Wire e = cb.evaluatorInput();
    const Wire a1 = cb.andGate(g, e);
    const Wire a2 = cb.andGate(e, g); // commutative duplicate
    cb.addOutput(cb.xorGate(a1, a2));
    const Netlist nl = cb.build();

    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_TRUE(rep.has(DiagCode::DuplicateGate));

    // mergeDuplicateGates is the pass this warning mirrors: after it,
    // the warning is gone.
    EXPECT_FALSE(analyzeNetlist(mergeDuplicateGates(nl))
                     .has(DiagCode::DuplicateGate));
}

TEST(Netlint, InertOutputTaintPass)
{
    // Output 0 mixes both parties; output 1 is garbler-only. Only the
    // latter is inert — the 2PC reveals nothing the evaluator fed in.
    CircuitBuilder cb;
    const Wire g1 = cb.garblerInput();
    const Wire g2 = cb.garblerInput();
    const Wire e = cb.evaluatorInput();
    cb.addOutput(cb.andGate(g1, e));
    cb.addOutput(cb.andGate(g1, g2));
    const CircuitLintReport rep = analyzeNetlist(cb.build());
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(countCode(rep, DiagCode::InertOutput), 1u);
    for (const Diagnostic &d : rep.diags)
        if (d.code == DiagCode::InertOutput)
            EXPECT_EQ(d.site, 1u);
}

TEST(Netlint, InertOutputSuppressedWithoutEvaluatorInputs)
{
    // A single-party circuit (e.g. a garbler-only demo) would be all
    // inert; the warning is about *asymmetry*, so it stays silent.
    CircuitBuilder cb;
    const Wire g1 = cb.garblerInput();
    const Wire g2 = cb.garblerInput();
    cb.addOutput(cb.andGate(g1, g2));
    const CircuitLintReport rep = analyzeNetlist(cb.build());
    EXPECT_TRUE(rep.clean());
    EXPECT_FALSE(rep.has(DiagCode::InertOutput));
}

// ---------------------------------------------------------------------
// Diagnostics plumbing
// ---------------------------------------------------------------------

TEST(Netlint, CodeNamesAreKebabCase)
{
    EXPECT_STREQ(diagCodeName(DiagCode::UseBeforeDef),
                 "use-before-def");
    EXPECT_STREQ(diagCodeName(DiagCode::LinkTweakReuse),
                 "link-tweak-reuse");
    EXPECT_STREQ(diagCodeName(DiagCode::DeadGate),
                 "dead-gate");
    EXPECT_STREQ(diagCodeName(DiagCode::InertOutput),
                 "inert-output");
    EXPECT_STREQ(severityName(Severity::Error), "error");
    EXPECT_STREQ(severityName(Severity::Warning),
                 "warning");
}

TEST(Netlint, FormatCircuitDiagIsCompilerStyle)
{
    Diagnostic d;
    d.code = DiagCode::UseBeforeDef;
    d.severity = Severity::Error;
    d.site = 12;
    d.message = "gate reads wire 99 before it is defined";
    EXPECT_EQ(formatDiagnostic(d, "adder.txt"),
              "adder.txt: error[use-before-def]: gate reads wire 99 "
              "before it is defined (gate #12)");
    EXPECT_EQ(formatDiagnostic(d),
              "error[use-before-def]: gate reads wire 99 before it is "
              "defined (gate #12)");
}

TEST(Netlint, SummaryCountsFindings)
{
    Netlist nl = tinyXor();
    nl.gates[0].a = nl.outputWireOf(0);
    nl.outputs.push_back(nl.numWires() + 1);
    const CircuitLintReport rep = analyzeNetlist(nl);
    EXPECT_EQ(rep.errors, 2u);
    EXPECT_EQ(rep.summary(), "2 errors, 0 warnings");
    EXPECT_EQ(rep.firstError(), rep.diags[0].message);
}

// ---------------------------------------------------------------------
// Bristol reader attachment
// ---------------------------------------------------------------------

TEST(Netlint, BristolReaderAttachesMultiplyDriven)
{
    // File wire 3 is written twice: the second XOR retargets it. The
    // plain reader silently last-write-wins; the lint-attaching
    // overload records the rebinding as an error without rejecting.
    const std::string text = "3 5\n"
                             "1 1 1\n"
                             "\n"
                             "2 1 0 1 3 XOR\n"
                             "2 1 1 0 3 XOR\n"
                             "1 1 3 4 INV\n";
    CircuitLintReport rep;
    const Netlist nl = readBristolString(text, &rep);
    EXPECT_EQ(nl.check(), ""); // still canonical after rebinding
    EXPECT_FALSE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::MultiplyDriven));
}

TEST(Netlint, BristolReaderWithoutWarningTextKeepsTheFindings)
{
    // The upload gate's parse: DotProd as uploaded (every input the
    // evaluator's) carries dead gates. Without warning text the report
    // holds the same findings and summary(), only no messages.
    Netlist nl = vipWorkload("DotProd", false).netlist;
    nl.numEvaluatorInputs += nl.numGarblerInputs;
    nl.numGarblerInputs = 0;
    const std::string text = writeBristolString(nl);
    CircuitLintOptions no_text;
    no_text.warningText = false;
    CircuitLintReport full, bare;
    readBristol(text, &full);
    readBristol(text, &bare, no_text);
    EXPECT_GT(countCode(full, DiagCode::DeadGate), 0u);
    EXPECT_EQ(bare.summary(), full.summary());
    ASSERT_EQ(bare.diags.size(), full.diags.size());
    for (size_t i = 0; i < full.diags.size(); ++i) {
        EXPECT_EQ(bare.diags[i].code, full.diags[i].code);
        EXPECT_EQ(bare.diags[i].site, full.diags[i].site);
        EXPECT_TRUE(bare.diags[i].message.empty());
    }
}

TEST(Netlint, BristolReaderAttachesCostOnCleanFiles)
{
    const std::string text = "3 5\n"
                             "1 1 1\n"
                             "\n"
                             "2 1 0 1 2 AND\n"
                             "2 1 0 2 3 XOR\n"
                             "1 1 3 4 INV\n";
    CircuitLintReport rep;
    const Netlist nl = readBristolString(text, &rep);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.cost.gates, nl.numGates());
    EXPECT_EQ(rep.cost.andGates, 1u);
}

// ---------------------------------------------------------------------
// ChainPlan analysis
// ---------------------------------------------------------------------

TEST(Netlint, PlanCheckMessagesAreStable)
{
    // ChainPlan::check() predates the analyzer; callers pin its
    // messages, so the rebuilt implementation must keep them.
    chain::ChainPlan empty;
    EXPECT_EQ(empty.check(), "chain plan has no nodes");

    chain::ChainPlan plan = tinyPlan();
    plan.sources[0][0] = chain::InputSource::garbler(99);
    const CircuitLintReport rep = analyzeChainPlan(plan);
    EXPECT_TRUE(rep.has(DiagCode::PlanInputRange));
    EXPECT_EQ(plan.check(), rep.firstError());
}

TEST(Netlint, PlanLinkOrderAndPortRangeAreCaught)
{
    chain::ChainPlan fwd = tinyPlan();
    fwd.sources[0][0] = chain::InputSource::link(0, 0); // self-link
    EXPECT_TRUE(analyzeChainPlan(fwd).has(DiagCode::LinkOrder));

    chain::ChainPlan oob = twoNodePlan();
    oob.sources[1][0] = chain::InputSource::link(0, 99);
    EXPECT_TRUE(analyzeChainPlan(oob).has(DiagCode::PortRange));
}

TEST(Netlint, DeadNodeIsCaught)
{
    chain::ChainPlan plan = twoNodePlan();
    // Node 2 consumes plan inputs but feeds no output or later node.
    plan.nodes.push_back({chain::ComponentKind::Add, 4});
    std::vector<chain::InputSource> s;
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::garbler(i));
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(chain::InputSource::evaluator(i));
    plan.sources.push_back(std::move(s));

    const CircuitLintReport rep = analyzeChainPlan(plan);
    EXPECT_TRUE(rep.clean());
    EXPECT_TRUE(rep.has(DiagCode::DeadNode));
    for (const Diagnostic &d : rep.diags)
        if (d.code == DiagCode::DeadNode)
            EXPECT_EQ(d.site, 2u);
}

TEST(Netlint, UnusedPlanInputIsCaught)
{
    chain::ChainPlan plan = tinyPlan();
    plan.garblerInputs = 6; // bits 4 and 5 never sourced
    const CircuitLintReport rep = analyzeChainPlan(plan);
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(countCode(rep, DiagCode::UnusedPlanInput), 2u);
}

TEST(Netlint, ChainWorkloadsAreAnalyzerClean)
{
    for (const std::string &spec : chain::chainWorkloadSpecs(8)) {
        const chain::ChainWorkload w = chain::resolveChainWorkload(spec);
        const CircuitLintReport rep = analyzeChainPlan(w.plan);
        EXPECT_TRUE(rep.clean()) << spec << ": " << rep.firstError();
        EXPECT_EQ(rep.warnings, 0u) << spec;
        EXPECT_GT(rep.cost.gates, 0u) << spec;
    }
}

// ---------------------------------------------------------------------
// Session integration
// ---------------------------------------------------------------------

TEST(Netlint, SessionCompileAttachesCost)
{
    const Workload w = vipWorkload("Hamm", false);
    Session s(w);
    const Session::Compiled c = s.compile();
    const CircuitCost cost = circuitCost(w.netlist);
    EXPECT_EQ(c.stats.multDepth, cost.multDepth);
    EXPECT_EQ(c.stats.freeXorPercent, cost.freeXorPercent);
    EXPECT_GT(c.stats.multDepth, 0u);
}

TEST(Netlint, WorkloadFleetIsErrorFree)
{
    // The CLI gate (haac_lint netlist --all-workloads --Werror) enforces
    // warning-freedom modulo registry waivers; here we pin the hard
    // floor — no workload ships an analyzer *error* — plus the waiver
    // contract: only warning-severity codes may be waived.
    for (const std::string &name : vipNames()) {
        const Workload w = vipWorkload(name, false);
        const CircuitLintReport rep =
            analyzeNetlist(optimizeNetlist(w.netlist));
        EXPECT_TRUE(rep.clean()) << name << ": " << rep.firstError();
        for (const Diagnostic &d : rep.diags)
            EXPECT_NE(d.severity, Severity::Error) << name;
    }
}

} // namespace
} // namespace haac
