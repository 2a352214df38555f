/**
 * @file
 * The static verifier (core/isa/verify.h): one positive and one
 * negative case per diagnostic code, lint-clean assertions over the
 * compiled VIP workloads and the tests/asm/ corpus, and the
 * conformance-harness injection canaries rechecked statically — every
 * defect the differential fuzzer catches by luck, the verifier must
 * catch by proof.
 */
#include <gtest/gtest.h>

#include <dirent.h>

#include <string>
#include <vector>

#include "core/compiler/passes.h"
#include "core/compiler/streams.h"
#include "core/isa/asm.h"
#include "core/isa/conformance.h"
#include "core/isa/disasm.h"
#include "core/isa/verify.h"
#include "core/sim/config.h"
#include "shard/partition.h"
#include "workloads/vip.h"

namespace haac {
namespace {

std::string
dump(const LintReport &rep)
{
    std::string s;
    for (const Diagnostic &d : rep.diags)
        s += formatDiagnostic(d) + "\n";
    return s;
}

/**
 * A small well-formed program: 2 party inputs + const-one, XOR / AND /
 * NOT over them, both outputs live. Structurally and (at any window)
 * semantically clean — the baseline every negative case perturbs.
 */
HaacProgram
cleanProgram()
{
    HaacProgram p;
    p.numInputs = 3;
    p.numGarblerInputs = 1;
    p.numEvaluatorInputs = 1;
    p.constOneAddr = 3;
    HaacInstruction x; // w4 = g0 ^ e0
    x.op = HaacOp::Xor, x.a = 1, x.b = 2, x.live = false;
    HaacInstruction a; // w5 = w4 & one
    a.op = HaacOp::And, a.a = 4, a.b = 3, a.live = true, a.tweak = 0;
    HaacInstruction n; // w6 = !w5
    n.op = HaacOp::Not, n.a = 5, n.b = 5, n.live = true;
    p.instrs = {x, a, n};
    p.outputs = {5, 6};
    return p;
}

/**
 * An XOR chain long enough that the @p sww window slides: instruction
 * k computes w(3+k) = w(2+k) ^ w1. Operand locality is perfect, so at
 * ESW-exact liveness only the output is live.
 */
HaacProgram
chainProgram(uint32_t n, uint32_t sww)
{
    HaacProgram p;
    p.numInputs = 2;
    p.numGarblerInputs = 1;
    p.numEvaluatorInputs = 1;
    p.constOneAddr = kOorAddr;
    for (uint32_t k = 0; k < n; ++k) {
        HaacInstruction ins;
        ins.op = HaacOp::Xor;
        ins.a = k == 0 ? 1 : p.outputAddrOf(k - 1);
        ins.b = k == 0 ? 2 : 1;
        p.instrs.push_back(ins);
    }
    p.outputs = {p.outputAddrOf(n - 1)};
    applyEsw(p, sww);
    return p;
}

// --- structural codes ----------------------------------------------

TEST(Structural, CleanProgramHasNoDiagnostics)
{
    const LintReport rep = verifyProgram(cleanProgram());
    EXPECT_TRUE(rep.clean()) << dump(rep);
    EXPECT_TRUE(rep.diags.empty()) << dump(rep);
    EXPECT_EQ(rep.summary(), "0 errors, 0 warnings");
}

TEST(Structural, SentinelOperand)
{
    HaacProgram p = cleanProgram();
    p.instrs[0].a = kOorAddr;
    const LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::SentinelOperand)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Structural, UseBeforeDef)
{
    // Self-reference and forward reference both break def-before-use
    // (equivalently: they are the only ways to make the wire
    // dependence graph cyclic under the implicit output rule).
    HaacProgram p = cleanProgram();
    p.instrs[0].a = p.outputAddrOf(0); // w4 = w4 ^ e0
    LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::UseBeforeDef)) << dump(rep);

    p = cleanProgram();
    p.instrs[0].b = p.outputAddrOf(2); // forward into instr 2's output
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::UseBeforeDef)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Structural, NopOutputRead)
{
    // Operand read of a NOP's output...
    HaacProgram p = cleanProgram();
    p.instrs[0].op = HaacOp::Nop;
    p.instrs[0].b = p.instrs[0].a;
    // instr 1 reads w4, now a NOP output.
    LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::NopOutputRead)) << dump(rep);

    // ...and a program output naming one.
    p = cleanProgram();
    p.instrs[2].op = HaacOp::Nop; // w6, listed in outputs
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::NopOutputRead)) << dump(rep);

    // A NOP nobody reads is fine (the corpus has one).
    p = cleanProgram();
    HaacInstruction dead;
    dead.op = HaacOp::Nop, dead.a = 1, dead.b = 1;
    p.instrs.push_back(dead); // w7: unread
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(Structural, TweakReuse)
{
    HaacProgram p = cleanProgram();
    HaacInstruction a2; // w7 = w4 & w5, tweak colliding with instr 1
    a2.op = HaacOp::And, a2.a = 4, a2.b = 5, a2.tweak = 0;
    p.instrs.push_back(a2);
    const LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::TweakReuse)) << dump(rep);
    EXPECT_FALSE(rep.clean());

    // Distinct tweaks: clean.
    p.instrs.back().tweak = 1;
    EXPECT_TRUE(verifyProgram(p).clean());
}

TEST(Structural, InputSplit)
{
    HaacProgram p = cleanProgram();
    p.numGarblerInputs = 3; // 3 + 1 > 3 total
    const LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::InputSplit)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Structural, ConstOne)
{
    // Slot implied but undeclared.
    HaacProgram p = cleanProgram();
    p.constOneAddr = kOorAddr;
    LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::ConstOne)) << dump(rep);

    // Declared without a slot.
    p = cleanProgram();
    p.numEvaluatorInputs = 2;
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::ConstOne)) << dump(rep);

    // Declared at the wrong address.
    p = cleanProgram();
    p.constOneAddr = 1;
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::ConstOne)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Structural, UndefinedOutput)
{
    HaacProgram p = cleanProgram();
    p.outputs.push_back(p.numAddrs()); // one past the last wire
    LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::UndefinedOutput)) << dump(rep);

    p = cleanProgram();
    p.outputs.push_back(kOorAddr);
    rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::UndefinedOutput)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Structural, NoncanonicalOperandWarning)
{
    HaacProgram p = cleanProgram();
    p.instrs[2].b = 1; // NOT with b != a
    const LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::NoncanonicalOperand)) << dump(rep);
    EXPECT_TRUE(rep.clean()) << "must stay a warning";
    EXPECT_EQ(rep.warnings, 1u);

    LintOptions quiet;
    quiet.warnings = false;
    EXPECT_TRUE(verifyProgram(p, quiet).diags.empty());
}

TEST(Structural, StrayTweakWarning)
{
    HaacProgram p = cleanProgram();
    p.instrs[0].tweak = 7; // XOR carrying a tweak
    const LintReport rep = verifyProgram(p);
    EXPECT_TRUE(rep.has(DiagCode::StrayTweak)) << dump(rep);
    EXPECT_TRUE(rep.clean());
}

// --- window-dependent codes ----------------------------------------

TEST(Window, DroppedLiveBit)
{
    const uint32_t sww = 64;
    HaacProgram p = chainProgram(100, sww);
    // Make instruction 80 read w3 (producer: instr 0). Its window base
    // is well above w3, and instr 0 is dead at ESW-exact liveness
    // until re-marked.
    p.instrs[80].b = 3;
    LintReport rep = verifyProgram(p, LintOptions{sww});
    ASSERT_TRUE(rep.has(DiagCode::DroppedLiveBit)) << dump(rep);
    EXPECT_FALSE(rep.clean());

    // Re-running ESW (what the compiler does) repairs it.
    applyEsw(p, sww);
    rep = verifyProgram(p, LintOptions{sww});
    EXPECT_TRUE(rep.clean()) << dump(rep);
    EXPECT_TRUE(rep.diags.empty()) << dump(rep);

    // Structural mode (swwWires == 0) cannot see window defects.
    p.instrs[0].live = false;
    EXPECT_TRUE(verifyProgram(p).clean());
}

TEST(Window, OutputNotLive)
{
    const uint32_t sww = 64;
    HaacProgram p = chainProgram(100, sww);
    p.instrs.back().live = false; // the output's producer
    const LintReport rep = verifyProgram(p, LintOptions{sww});
    EXPECT_TRUE(rep.has(DiagCode::OutputNotLive)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Window, LivenessWasteWarningQuantifiesBytes)
{
    const uint32_t sww = 64;
    HaacProgram p = chainProgram(100, sww);
    p.instrs[10].live = true; // nobody reads w13 off-window
    p.instrs[11].live = true;
    const LintReport rep = verifyProgram(p, LintOptions{sww});
    EXPECT_TRUE(rep.has(DiagCode::LivenessWaste)) << dump(rep);
    EXPECT_TRUE(rep.clean()) << "waste is a warning, not an error";
    EXPECT_EQ(rep.wasteBytes, 2 * kLabelBytes);

    // The all-live (no-ESW) configuration is legal but wasteful:
    // every wire except those genuinely read off-window or output.
    clearEsw(p);
    const LintReport all = verifyProgram(p, LintOptions{sww});
    EXPECT_TRUE(all.clean());
    EXPECT_GT(all.wasteBytes, 90 * kLabelBytes);
}

// --- stream consistency --------------------------------------------

TEST(Streams, BuiltStreamsVerifyClean)
{
    const HaacConfig cfg = conformanceConfig(11);
    const HaacProgram p =
        generateProgram(11, GenOptions{}, cfg.swwWires());
    const StreamSet set = buildStreams(p, cfg);
    LintOptions opts;
    opts.swwWires = cfg.swwWires();
    opts.streams = &set;
    opts.warnings = false;
    const LintReport rep = verifyProgram(p, opts);
    EXPECT_TRUE(rep.clean()) << dump(rep);
}

TEST(Streams, CoverageCorruptionIsCaught)
{
    const HaacConfig cfg = conformanceConfig(11);
    const HaacProgram p =
        generateProgram(11, GenOptions{}, cfg.swwWires());
    StreamSet set = buildStreams(p, cfg);
    ASSERT_FALSE(set.ge.empty());

    // Re-route one instruction's geOf entry: the stream that carries
    // it no longer matches the map.
    ASSERT_FALSE(set.geOf.empty());
    set.geOf[0] = uint8_t(set.geOf[0] + 1);
    LintOptions opts;
    opts.swwWires = cfg.swwWires();
    opts.streams = &set;
    const LintReport rep = verifyProgram(p, opts);
    EXPECT_TRUE(rep.has(DiagCode::StreamCoverage)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Streams, TableCountCorruptionIsCaught)
{
    const HaacConfig cfg = conformanceConfig(11);
    const HaacProgram p =
        generateProgram(11, GenOptions{}, cfg.swwWires());
    StreamSet set = buildStreams(p, cfg);
    set.ge[0].tableCount += 1;
    LintOptions opts;
    opts.swwWires = cfg.swwWires();
    opts.streams = &set;
    const LintReport rep = verifyProgram(p, opts);
    EXPECT_TRUE(rep.has(DiagCode::StreamTableCount)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

// --- shard-manifest consistency ------------------------------------

/** w3 = g0 ^ e0 on shard 0; w4 = w3 ^ g0 on shard 1. */
struct TinyShardCase
{
    HaacProgram prog;
    ShardManifest man;

    TinyShardCase()
    {
        prog.numInputs = 2;
        prog.numGarblerInputs = 1;
        prog.numEvaluatorInputs = 1;
        prog.constOneAddr = kOorAddr;
        HaacInstruction i0;
        i0.op = HaacOp::Xor, i0.a = 1, i0.b = 2, i0.live = true;
        HaacInstruction i1;
        i1.op = HaacOp::Xor, i1.a = 3, i1.b = 1, i1.live = true;
        prog.instrs = {i0, i1};
        prog.outputs = {4};

        man.shardOfInstr = {0, 1};
        man.imports = {{}, {3}};
        man.exports = {{3}, {}};
    }

    LintReport
    verify() const
    {
        LintOptions opts;
        opts.shards = &man;
        return verifyProgram(prog, opts);
    }
};

TEST(Shards, ConsistentManifestIsClean)
{
    const TinyShardCase c;
    const LintReport rep = c.verify();
    EXPECT_TRUE(rep.clean()) << dump(rep);
    EXPECT_TRUE(rep.diags.empty()) << dump(rep);
}

TEST(Shards, MalformedManifest)
{
    // Wrong shardOfInstr arity.
    TinyShardCase c;
    c.man.shardOfInstr = {0};
    EXPECT_TRUE(c.verify().has(DiagCode::ShardManifestBad));

    // Exporting a primary input.
    c = TinyShardCase();
    c.man.exports[0].insert(c.man.exports[0].begin(), 1u);
    EXPECT_TRUE(c.verify().has(DiagCode::ShardManifestBad));

    // Exporting a wire the shard does not own.
    c = TinyShardCase();
    c.man.exports[1] = {3}; // w3 belongs to shard 0
    LintReport rep = c.verify();
    EXPECT_TRUE(rep.has(DiagCode::ShardManifestBad)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Shards, ImportMissing)
{
    TinyShardCase c;
    c.man.imports[1].clear();
    const LintReport rep = c.verify();
    EXPECT_TRUE(rep.has(DiagCode::ShardImportMissing)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Shards, ExportMissing)
{
    TinyShardCase c;
    c.man.exports[0].clear();
    const LintReport rep = c.verify();
    EXPECT_TRUE(rep.has(DiagCode::ShardExportMissing)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Shards, ExportDead)
{
    TinyShardCase c;
    c.prog.instrs[0].live = false; // exported but never spilled
    const LintReport rep = c.verify();
    EXPECT_TRUE(rep.has(DiagCode::ShardExportDead)) << dump(rep);
    EXPECT_FALSE(rep.clean());
}

TEST(Shards, UnusedImportAndExportWarn)
{
    TinyShardCase c;
    c.prog.instrs[1].a = 1; // no cross-shard read remains
    const LintReport rep = c.verify();
    EXPECT_TRUE(rep.has(DiagCode::ShardImportUnused)) << dump(rep);
    EXPECT_TRUE(rep.has(DiagCode::ShardExportUnused)) << dump(rep);
    EXPECT_TRUE(rep.clean()) << "manifest slack is a warning";
}

TEST(Shards, RealPartitionPlanVerifiesClean)
{
    // The genuine pipeline: compile-shaped program, LPT partition,
    // cross-shard exports marked live, manifest converted. The
    // verifier must agree with partitionStreams' own bookkeeping.
    HaacConfig cfg;
    cfg.numGes = 4;
    cfg.swwBytes = 128 * kLabelBytes;
    GenOptions gen;
    gen.minInstrs = 200;
    gen.maxInstrs = 400;
    gen.farOperandPct = 50;
    for (uint64_t seed = 3; seed < 6; ++seed) {
        HaacProgram p = generateProgram(seed, gen, cfg.swwWires());
        const StreamSet set = buildStreams(p, cfg);
        const shard::ShardPlan plan =
            shard::partitionStreams(p, set, 2);
        shard::markCrossShardLive(p, plan);
        const ShardManifest man = shard::toLintManifest(plan);

        LintOptions opts;
        opts.swwWires = cfg.swwWires();
        opts.shards = &man;
        opts.warnings = false;
        const LintReport rep = verifyProgram(p, opts);
        EXPECT_TRUE(rep.clean()) << "seed " << seed << "\n" << dump(rep);
    }
}

// --- the conformance canaries, statically --------------------------

TEST(Canary, InjectedOorwReorderIsCaughtStatically)
{
    GenOptions opts;
    opts.farOperandPct = 60;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        const HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        StreamSet streams = buildStreams(prog, cfg);

        bool swapped = false;
        for (GeStreams &gs : streams.ge) {
            for (size_t i = 0; i + 1 < gs.oorAddrs.size(); ++i)
                if (gs.oorAddrs[i] != gs.oorAddrs[i + 1]) {
                    std::swap(gs.oorAddrs[i], gs.oorAddrs[i + 1]);
                    swapped = true;
                    break;
                }
            if (swapped)
                break;
        }
        if (!swapped)
            continue;

        LintOptions lo;
        lo.swwWires = cfg.swwWires();
        lo.streams = &streams;
        const LintReport rep = verifyProgram(prog, lo);
        ASSERT_TRUE(rep.has(DiagCode::StreamOorMismatch))
            << "seed " << seed << ": static check missed the "
            << "corrupted pop order\n"
            << dump(rep);
        return;
    }
    FAIL() << "no seed in [0,200) produced a swappable OoRW stream";
}

TEST(Canary, InjectedLiveBitClearIsCaughtStatically)
{
    GenOptions opts;
    opts.farOperandPct = 60;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        const StreamSet streams = buildStreams(prog, cfg);

        uint32_t victim = 0;
        for (const GeStreams &gs : streams.ge)
            for (uint32_t addr : gs.oorAddrs)
                if (addr > prog.numInputs) {
                    victim = addr;
                    break;
                }
        if (victim == 0)
            continue;

        prog.instrs[victim - prog.numInputs - 1].live = false;
        const LintReport rep =
            verifyProgram(prog, LintOptions{cfg.swwWires()});
        ASSERT_TRUE(rep.has(DiagCode::DroppedLiveBit))
            << "seed " << seed << ": static check missed the "
            << "dropped spill\n"
            << dump(rep);
        return;
    }
    FAIL() << "no seed in [0,200) OoR-read an instruction output";
}

TEST(Canary, InjectedUseBeforeDefIsCaughtStatically)
{
    const HaacConfig cfg = conformanceConfig(5);
    HaacProgram prog =
        generateProgram(5, GenOptions{}, cfg.swwWires());
    ASSERT_GE(prog.instrs.size(), 2u);
    prog.instrs[0].a = prog.outputAddrOf(1); // forward reference
    const LintReport rep = verifyProgram(prog);
    EXPECT_TRUE(rep.has(DiagCode::UseBeforeDef)) << dump(rep);
}

TEST(Canary, InjectedTweakReuseIsCaughtStatically)
{
    GenOptions opts;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        std::vector<size_t> ands;
        for (size_t k = 0; k < prog.instrs.size(); ++k)
            if (prog.instrs[k].op == HaacOp::And)
                ands.push_back(k);
        if (ands.size() < 2)
            continue;
        prog.instrs[ands[1]].tweak = prog.instrs[ands[0]].tweak;
        const LintReport rep = verifyProgram(prog);
        ASSERT_TRUE(rep.has(DiagCode::TweakReuse)) << dump(rep);
        return;
    }
    FAIL() << "no generated program had two AND instructions";
}

TEST(Canary, InjectedNopOutputReadIsCaughtStatically)
{
    GenOptions opts;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        // Find an instruction whose output a later instruction reads,
        // and turn the producer into a NOP.
        for (size_t k = 0; k + 1 < prog.instrs.size(); ++k) {
            const uint32_t out = prog.outputAddrOf(k);
            bool read = false;
            for (size_t j = k + 1; j < prog.instrs.size() && !read;
                 ++j)
                read = prog.instrs[j].a == out ||
                       prog.instrs[j].b == out;
            if (!read)
                continue;
            prog.instrs[k].op = HaacOp::Nop;
            prog.instrs[k].b = prog.instrs[k].a;
            prog.instrs[k].tweak = 0;
            const LintReport rep = verifyProgram(prog);
            ASSERT_TRUE(rep.has(DiagCode::NopOutputRead))
                << dump(rep);
            return;
        }
    }
    FAIL() << "no generated program read an interior wire";
}

// --- the conformance harness rejects what the verifier rejects ------

TEST(Integration, CheckConformanceRefusesIllFormedPrograms)
{
    const HaacConfig cfg = conformanceConfig(9);
    HaacProgram prog =
        generateProgram(9, GenOptions{}, cfg.swwWires());
    std::vector<size_t> ands;
    for (size_t k = 0; k < prog.instrs.size(); ++k)
        if (prog.instrs[k].op == HaacOp::And)
            ands.push_back(k);
    ASSERT_GE(ands.size(), 2u) << "seed 9 must generate >= 2 ANDs";
    prog.instrs[ands[1]].tweak = prog.instrs[ands[0]].tweak;

    const ConformanceResult r = checkConformance(
        prog, cfg, std::vector<bool>(prog.numGarblerInputs, false),
        std::vector<bool>(prog.numEvaluatorInputs, false));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("tweak-reuse"), std::string::npos)
        << r.error;
}

// --- parse-time lints ----------------------------------------------

TEST(ParseLint, FindingsCarrySourceLines)
{
    // Explicit tweak colliding with an auto-assigned one, and a read
    // of a NOP output: grammatically legal, semantically rejected.
    const AsmResult r = parseAsm(".inputs 2 garbler=1 evaluator=1\n"
                                 "AND w1, w2\n"
                                 "NOP w1\n"
                                 "XOR w4, w1\n"
                                 "AND w3, w5 (tweak 0)\n"
                                 ".outputs w6\n");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.instrLines.size(), 4u);
    EXPECT_EQ(r.instrLines[0], 2u);
    EXPECT_EQ(r.instrLines[3], 5u);

    bool sawTweak = false, sawNop = false;
    for (const Diagnostic &d : r.lints) {
        if (d.code == DiagCode::TweakReuse) {
            sawTweak = true;
            EXPECT_EQ(d.line, 5u) << formatDiagnostic(d);
        }
        if (d.code == DiagCode::NopOutputRead) {
            sawNop = true;
            EXPECT_EQ(d.line, 4u) << formatDiagnostic(d);
        }
    }
    EXPECT_TRUE(sawTweak);
    EXPECT_TRUE(sawNop);

    const std::string line =
        formatDiagnostic(r.lints.front(), "case.haac");
    EXPECT_NE(line.find("case.haac:"), std::string::npos) << line;
    EXPECT_NE(line.find("error["), std::string::npos) << line;
}

TEST(ParseLint, CleanSourceHasNoLints)
{
    const AsmResult r = parseAsm(".inputs 2 garbler=1 evaluator=1\n"
                                 "AND w1, w2 [live]\n"
                                 ".outputs w3\n"
                                 ".test garbler=1 evaluator=1 "
                                 "expect=1\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.lints.empty());
}

// --- fleet-wide cleanliness ----------------------------------------

TEST(Fleet, AllCompiledVipWorkloadsAreLintClean)
{
    for (const std::string &name : vipNames()) {
        SCOPED_TRACE(name);
        const Workload w = vipWorkload(name, /*paper_scale=*/false);
        CompileOptions copts; // Full reorder + ESW, 2 MB SWW
        const HaacProgram prog =
            compileProgram(assemble(w.netlist), copts);
        const LintReport rep =
            verifyProgram(prog, LintOptions{copts.swwWires});
        EXPECT_TRUE(rep.diags.empty())
            << rep.summary() << "\n"
            << dump(rep);
    }
}

TEST(Fleet, AsmCorpusIsLintClean)
{
    std::vector<std::string> files;
    DIR *dir = opendir(HAAC_ASM_DIR);
    ASSERT_NE(dir, nullptr) << "cannot open " << HAAC_ASM_DIR;
    while (dirent *e = readdir(dir)) {
        const std::string name = e->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".haac") == 0)
            files.push_back(std::string(HAAC_ASM_DIR) + "/" + name);
    }
    closedir(dir);
    ASSERT_GE(files.size(), 5u);

    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        const AsmResult r = parseAsmFile(path);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.lints.empty()) << formatDiagnostic(r.lints[0], path);

        // Window-level at the grader geometry (256-wire SWW): zero
        // findings, warnings included — the corpus documents best
        // practice, so wasteful live bits are not acceptable there.
        LintOptions opts;
        opts.swwWires = 256;
        opts.instrLines = &r.instrLines;
        const LintReport rep = verifyProgram(r.prog, opts);
        EXPECT_TRUE(rep.diags.empty())
            << rep.summary() << "\n"
            << dump(rep);
    }
}

TEST(Fleet, CompilerVerifyFlagAcceptsItsOwnOutput)
{
    const Workload w = vipWorkload("Hamm", /*paper_scale=*/false);
    CompileOptions copts;
    copts.verify = true; // Release builds get the check only on request
    for (ReorderKind kind : {ReorderKind::Baseline, ReorderKind::Full,
                             ReorderKind::Segment}) {
        copts.reorder = kind;
        for (bool esw : {true, false}) {
            copts.esw = esw;
            EXPECT_NO_THROW(
                compileProgram(assemble(w.netlist), copts));
        }
    }
}

// --- code-name stability -------------------------------------------

TEST(Naming, CodeNamesAreStableAndKebabCase)
{
    // These strings are documentation (docs/ARCHITECTURE.md), CLI
    // output, and CI grep targets. Renaming one is a breaking change.
    EXPECT_STREQ(diagCodeName(DiagCode::SentinelOperand),
                 "sentinel-operand");
    EXPECT_STREQ(diagCodeName(DiagCode::UseBeforeDef),
                 "use-before-def");
    EXPECT_STREQ(diagCodeName(DiagCode::NopOutputRead),
                 "nop-output-read");
    EXPECT_STREQ(diagCodeName(DiagCode::TweakReuse), "tweak-reuse");
    EXPECT_STREQ(diagCodeName(DiagCode::InputSplit), "input-split");
    EXPECT_STREQ(diagCodeName(DiagCode::ConstOne), "const-one");
    EXPECT_STREQ(diagCodeName(DiagCode::UndefinedOutput),
                 "undefined-output");
    EXPECT_STREQ(diagCodeName(DiagCode::OutputNotLive),
                 "output-not-live");
    EXPECT_STREQ(diagCodeName(DiagCode::DroppedLiveBit),
                 "dropped-live-bit");
    EXPECT_STREQ(diagCodeName(DiagCode::StreamCoverage),
                 "stream-coverage");
    EXPECT_STREQ(diagCodeName(DiagCode::StreamOorMismatch),
                 "stream-oor-mismatch");
    EXPECT_STREQ(diagCodeName(DiagCode::StreamTableCount),
                 "stream-table-count");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardManifestBad),
                 "shard-manifest");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardImportMissing),
                 "shard-import-missing");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardExportMissing),
                 "shard-export-missing");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardExportDead),
                 "shard-export-dead");
    EXPECT_STREQ(diagCodeName(DiagCode::LivenessWaste),
                 "liveness-waste");
    EXPECT_STREQ(diagCodeName(DiagCode::NoncanonicalOperand),
                 "noncanonical-operand");
    EXPECT_STREQ(diagCodeName(DiagCode::StrayTweak), "stray-tweak");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardImportUnused),
                 "shard-import-unused");
    EXPECT_STREQ(diagCodeName(DiagCode::ShardExportUnused),
                 "shard-export-unused");
}

} // namespace
} // namespace haac
