#include "circuit/analyze.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "chain/link.h"
#include "circuit/optimize.h"

namespace haac {

namespace {

/** Collects diagnostics, dropping non-errors unless warnings are on. */
struct Accumulator
{
    const CircuitLintOptions &opts;
    CircuitLintReport rep;

    explicit Accumulator(const CircuitLintOptions &o) : opts(o) {}

    void
    error(DiagCode code, uint32_t site, WireId wire, std::string msg)
    {
        rep.add({code, Severity::Error, site, wire, 0, std::move(msg)});
    }

    /** Warnings take their message as a callable, so that a report
     *  without warning text (CircuitLintOptions::warningText off)
     *  never formats it. */
    template <typename MakeMsg>
    void
    warn(DiagCode code, uint32_t site, WireId wire, MakeMsg &&make_msg)
    {
        if (!opts.warnings)
            return;
        rep.add({code, Severity::Warning, site, wire, 0,
                 opts.warningText ? make_msg() : std::string()});
    }
};

/** Three-point constant lattice per wire. */
enum : uint8_t
{
    kValZero = 0,
    kValOne = 1,
    kValTop = 2,
};

std::string
opName(GateOp op)
{
    return op == GateOp::And ? "AND" : "XOR";
}

/**
 * Structural pass: everything that must hold before any per-wire
 * array can be indexed. Returns false when the shape itself is
 * corrupt (the scan below would overflow).
 */
bool
checkNetlistStructure(const Netlist &nl, Accumulator &acc)
{
    const uint64_t inputs64 = uint64_t(nl.numGarblerInputs) +
                              nl.numEvaluatorInputs +
                              (nl.constOne == kNoWire ? 0 : 1);
    const uint64_t wires64 = inputs64 + nl.gates.size();
    if (wires64 > uint64_t(kNoWire)) {
        acc.error(DiagCode::InputShape, kNoSite, kNoWire,
                  "declared inputs plus gates overflow the 32-bit "
                  "wire address space");
        return false;
    }
    const uint32_t inputs = uint32_t(inputs64);
    const uint32_t wires = uint32_t(wires64);

    if (nl.constOne != kNoWire && nl.constOne != inputs - 1)
        acc.error(DiagCode::InputShape, kNoSite,
                  nl.constOne,
                  "constant-one wire " + std::to_string(nl.constOne) +
                      " is not the last primary input (wire " +
                      std::to_string(inputs - 1) + ")");

    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = inputs + g;
        for (const WireId w : {gate.a, gate.b}) {
            if (w >= wires) {
                acc.error(DiagCode::WireOutOfRange, g, w,
                          opName(gate.op) + " operand names wire " +
                              std::to_string(w) +
                              " past the address space (" +
                              std::to_string(wires) + " wires)");
            } else if (w >= out) {
                acc.error(
                    DiagCode::UseBeforeDef, g, w,
                    opName(gate.op) + " operand names wire " +
                        std::to_string(w) +
                        " at/after its own output — a use before "
                        "definition, i.e. a combinational cycle");
            }
        }
    }

    for (uint32_t i = 0; i < nl.outputs.size(); ++i) {
        const WireId w = nl.outputs[i];
        if (w >= wires)
            acc.error(DiagCode::DanglingOutput, i, w,
                      "output names undefined wire " +
                          std::to_string(w) + " (" +
                          std::to_string(wires) + " wires exist)");
    }
    return true;
}

/** Per-wire facts of the deep pass: reaches an output, is read (or is
 *  an output), depends on a garbler / an evaluator input. */
enum : uint8_t { kLive = 1, kRead = 2, kDepG = 4, kDepE = 8 };

/** Liveness and reads in one reverse scan; constants, taint, depth and
 *  the warnings in one forward scan. Both require a structurally clean
 *  netlist. */
void
analyzeNetlistDeep(const Netlist &nl, Accumulator &acc)
{
    const uint32_t inputs = nl.numInputs();
    const uint32_t wires = nl.numWires();

    // Reverse reachability from the outputs (the eliminateDeadGates
    // criterion, so DeadGate warnings vanish exactly when it runs).
    // A gate's output is final when the scan reaches it: only later
    // gates read it.
    std::vector<uint8_t> mark(wires, 0);
    for (WireId w : nl.outputs)
        mark[w] |= kLive | kRead;
    for (uint32_t g = nl.numGates(); g-- > 0;) {
        const Gate &gate = nl.gates[g];
        const uint8_t live = mark[inputs + g] & kLive;
        mark[gate.a] |= kRead | live;
        mark[gate.b] |= kRead | live;
    }

    // Constant propagation and input-dependence taint, forward. A
    // constant wire depends on nobody; otherwise dependence is the
    // union over operands.
    std::vector<uint8_t> val(wires, kValTop);
    for (uint32_t w = 0; w < nl.numGarblerInputs; ++w)
        mark[w] |= kDepG;
    for (uint32_t w = 0; w < nl.numEvaluatorInputs; ++w)
        mark[nl.numGarblerInputs + w] |= kDepE;
    if (nl.constOne != kNoWire)
        val[nl.constOne] = kValOne;

    // AND depth for the cost report.
    std::vector<uint32_t> depth(wires, 0);

    // The exact mergeDuplicateGates criterion (optimize.cc), which is
    // what makes the analyzer the optimizer's referee.
    const std::vector<WireId> alias = duplicateGateAliases(nl);

    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = inputs + g;
        const uint8_t va = val[gate.a], vb = val[gate.b];

        uint8_t v = kValTop;
        if (gate.op == GateOp::Xor) {
            if (gate.a == gate.b)
                v = kValZero;
            else if (va != kValTop && vb != kValTop)
                v = uint8_t(va ^ vb);
            else if (va == kValZero)
                v = vb;
            else if (vb == kValZero)
                v = va;
        } else {
            if (va == kValZero || vb == kValZero)
                v = kValZero;
            else if (gate.a == gate.b)
                v = va;
            else if (va == kValOne)
                v = vb;
            else if (vb == kValOne)
                v = va;
        }
        val[out] = v;
        if (v == kValTop)
            mark[out] |= (mark[gate.a] | mark[gate.b]) & (kDepG | kDepE);
        depth[out] = std::max(depth[gate.a], depth[gate.b]) +
                     (gate.op == GateOp::And ? 1 : 0);

        auto gateText = [&gate] {
            return opName(gate.op) + "(" + std::to_string(gate.a) + ", " +
                   std::to_string(gate.b) + ")";
        };
        if (!(mark[out] & kLive))
            acc.warn(DiagCode::DeadGate, g, out, [&] {
                return gateText() + " cannot reach any primary output";
            });
        else if (v != kValTop)
            acc.warn(DiagCode::ConstantCone, g, out, [&] {
                return gateText() + " always evaluates to " +
                       std::to_string(int(v)) +
                       " — a constant-foldable cone";
            });
        if (alias[out] != out)
            acc.warn(DiagCode::DuplicateGate, g, out, [&] {
                return gateText() +
                       " structurally duplicates the gate driving "
                       "wire " +
                       std::to_string(alias[out]);
            });
    }

    // Declared inputs nobody reads (and that are not passed through
    // as outputs). The constant-one wire is exempt: the builder
    // always materializes it.
    for (uint32_t w = 0; w < inputs; ++w) {
        if (w == nl.constOne || (mark[w] & kRead))
            continue;
        const bool garbler = w < nl.numGarblerInputs;
        const uint32_t idx = garbler ? w : w - nl.numGarblerInputs;
        acc.warn(DiagCode::UnusedInput, idx, w, [&] {
            return std::string(garbler ? "garbler" : "evaluator") +
                   " input " + std::to_string(idx) + " is never read";
        });
    }

    // Taint verdicts per output: no evaluator dependence means the
    // decoded bit reveals nothing the evaluator contributed — it is
    // constant or a function of garbler inputs only. Vacuous (and
    // suppressed) when the circuit declares no evaluator inputs.
    if (nl.numEvaluatorInputs > 0) {
        for (uint32_t i = 0; i < nl.outputs.size(); ++i) {
            const WireId w = nl.outputs[i];
            if (mark[w] & kDepE)
                continue;
            acc.warn(DiagCode::InertOutput, i, w, [&] {
                return val[w] != kValTop
                           ? "output is the constant " +
                                 std::to_string(int(val[w])) +
                                 " — it leaks nothing"
                       : (mark[w] & kDepG)
                           ? "output depends on garbler inputs only "
                             "— the evaluator contributes nothing "
                             "to it"
                           : "output is the public constant wire — "
                             "it leaks nothing";
            });
        }
    }

    CircuitCost &cost = acc.rep.cost;
    cost.gates = nl.numGates();
    cost.andGates = nl.numAndGates();
    cost.xorGates = cost.gates - cost.andGates;
    for (WireId w : nl.outputs)
        cost.multDepth = std::max(cost.multDepth, depth[w]);
    cost.freeXorPercent =
        cost.gates == 0 ? 0.0
                        : 100.0 * double(cost.xorGates) /
                              double(cost.gates);
}

/**
 * Structural plan checks — the analyzer form of the original
 * ChainPlan::check(), message for message, plus the CLNK tweak
 * domain/uniqueness proof. Returns false when the per-node scan had
 * to be abandoned (list shapes disagree).
 */
bool
checkPlanStructure(const chain::ChainPlan &plan, Accumulator &acc)
{
    using chain::InputSource;
    using chain::SourceKind;

    if (plan.nodes.empty()) {
        acc.error(DiagCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has no nodes");
        return false;
    }
    if (plan.nodes.size() > chain::kMaxChainNodes) {
        acc.error(DiagCode::PlanShape, kNoSite, kNoWire,
                  "chain plan exceeds " +
                      std::to_string(chain::kMaxChainNodes) +
                      " nodes");
        return false;
    }
    if (plan.sources.size() != plan.nodes.size()) {
        acc.error(DiagCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has " +
                      std::to_string(plan.sources.size()) +
                      " source lists for " +
                      std::to_string(plan.nodes.size()) + " nodes");
        return false;
    }
    if (plan.garblerInputs > chain::kMaxChainInputs ||
        plan.evaluatorInputs > chain::kMaxChainInputs)
        acc.error(DiagCode::PlanShape, kNoSite, kNoWire,
                  "chain plan declares more than " +
                      std::to_string(chain::kMaxChainInputs) +
                      " inputs per party");

    bool ports_ok = true;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        const std::string err = plan.nodes[n].check();
        if (!err.empty()) {
            acc.error(DiagCode::PlanShape, uint32_t(n), kNoWire,
                      "node " + std::to_string(n) + ": " + err);
            ports_ok = false;
            continue;
        }
        if (plan.sources[n].size() != plan.nodes[n].inputBits()) {
            acc.error(DiagCode::PortWidthMismatch, uint32_t(n),
                      kNoWire,
                      "node " + std::to_string(n) + " (" +
                          plan.nodes[n].name() + ") takes " +
                          std::to_string(plan.nodes[n].inputBits()) +
                          " input bits but the plan wires " +
                          std::to_string(plan.sources[n].size()));
            ports_ok = false;
        }
        for (size_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &s = plan.sources[n][i];
            const std::string port = "node " + std::to_string(n) +
                                     " input " + std::to_string(i);
            switch (s.kind) {
            case SourceKind::Garbler:
                if (s.index >= plan.garblerInputs)
                    acc.error(DiagCode::PlanInputRange,
                              uint32_t(n), kNoWire,
                              port + ": garbler input " +
                                  std::to_string(s.index) +
                                  " out of range (" +
                                  std::to_string(plan.garblerInputs) +
                                  " declared)");
                break;
            case SourceKind::Evaluator:
                if (s.index >= plan.evaluatorInputs)
                    acc.error(
                        DiagCode::PlanInputRange, uint32_t(n),
                        kNoWire,
                        port + ": evaluator input " +
                            std::to_string(s.index) +
                            " out of range (" +
                            std::to_string(plan.evaluatorInputs) +
                            " declared)");
                break;
            case SourceKind::Link:
                if (s.from.node >= n) {
                    acc.error(DiagCode::LinkOrder, uint32_t(n),
                              kNoWire,
                              port + ": links node " +
                                  std::to_string(s.from.node) +
                                  ", which is not an earlier node "
                                  "(plans are topologically ordered)");
                    ports_ok = false;
                } else if (s.from.bit >=
                           plan.nodes[s.from.node].outputBits()) {
                    acc.error(
                        DiagCode::PortRange, uint32_t(n),
                        kNoWire,
                        port + ": links output bit " +
                            std::to_string(s.from.bit) + " of " +
                            plan.nodes[s.from.node].name() +
                            ", which has " +
                            std::to_string(
                                plan.nodes[s.from.node].outputBits()) +
                            " outputs");
                }
                break;
            case SourceKind::Zero:
            case SourceKind::One:
                break;
            default:
                acc.error(DiagCode::PlanShape, uint32_t(n),
                          kNoWire, port + ": unknown source kind");
                break;
            }
        }
    }

    if (plan.outputs.empty())
        acc.error(DiagCode::PlanShape, kNoSite, kNoWire,
                  "chain plan has no outputs");
    for (size_t i = 0; i < plan.outputs.size(); ++i) {
        const chain::PortRef &ref = plan.outputs[i];
        if (ref.node >= plan.nodes.size()) {
            acc.error(DiagCode::DanglingOutput, uint32_t(i),
                      kNoWire,
                      "output " + std::to_string(i) + ": node " +
                          std::to_string(ref.node) + " out of range");
        } else if (plan.nodes[ref.node].check().empty() &&
                   ref.bit >= plan.nodes[ref.node].outputBits()) {
            acc.error(DiagCode::DanglingOutput, uint32_t(i),
                      kNoWire,
                      "output " + std::to_string(i) + ": bit " +
                          std::to_string(ref.bit) +
                          " out of range for " +
                          plan.nodes[ref.node].name());
        }
    }
    return ports_ok;
}

/**
 * Every link table encrypts under its own CLNK-domain tweak; reuse
 * collapses two links' hash domains (the chained analogue of ISA
 * tweak-reuse) and a tweak outside the domain can collide with the
 * garbling, base-OT, or IKNP tweak spaces.
 */
void
checkLinkTweaks(const chain::ChainPlan &plan, Accumulator &acc)
{
    const std::vector<uint64_t> tweaks =
        acc.opts.linkTweaks != nullptr ? *acc.opts.linkTweaks
                                       : chain::planLinkTweaks(plan);
    std::unordered_map<uint64_t, uint32_t> first;
    first.reserve(tweaks.size());
    for (uint32_t i = 0; i < tweaks.size(); ++i) {
        const uint64_t t = tweaks[i];
        if ((t >> 32) != (chain::kChainLinkTweakBase >> 32)) {
            std::ostringstream os;
            os << "link " << i << " tweak 0x" << std::hex << t
               << " is outside the CLNK domain (0x"
               << chain::kChainLinkTweakBase << " + ordinal)";
            acc.error(DiagCode::LinkTweakDomain, i, kNoWire,
                      os.str());
        }
        auto [it, inserted] = first.emplace(t, i);
        if (!inserted) {
            std::ostringstream os;
            os << "link " << i << " reuses tweak 0x" << std::hex << t
               << std::dec << " of link " << it->second
               << " — their encryption domains collapse";
            acc.error(DiagCode::LinkTweakReuse, i, kNoWire,
                      os.str());
        }
    }
}

/**
 * Plan-granular dataflow plus the flattened netlist's taint and cost.
 * Gate-level waste warnings from the flattening are deliberately
 * dropped (see analyzeChainPlan's doc); only the per-output taint
 * verdicts and the cost survive the merge.
 */
void
analyzePlanDeep(const chain::ChainPlan &plan, Accumulator &acc)
{
    using chain::SourceKind;

    // Reverse reachability over the node DAG.
    std::vector<bool> node_live(plan.nodes.size(), false);
    for (const chain::PortRef &ref : plan.outputs)
        node_live[ref.node] = true;
    for (size_t n = plan.nodes.size(); n-- > 0;) {
        if (!node_live[n])
            continue;
        for (const chain::InputSource &s : plan.sources[n])
            if (s.kind == SourceKind::Link)
                node_live[s.from.node] = true;
    }
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        if (!node_live[n])
            acc.warn(DiagCode::DeadNode, uint32_t(n), kNoWire, [&] {
                return "node " + std::to_string(n) + " (" +
                       plan.nodes[n].name() +
                       ") feeds no plan output or later node";
            });

    // Declared plan inputs no source names.
    std::vector<bool> g_used(plan.garblerInputs, false);
    std::vector<bool> e_used(plan.evaluatorInputs, false);
    for (const auto &node : plan.sources)
        for (const chain::InputSource &s : node) {
            if (s.kind == SourceKind::Garbler)
                g_used[s.index] = true;
            else if (s.kind == SourceKind::Evaluator)
                e_used[s.index] = true;
        }
    for (uint32_t i = 0; i < plan.garblerInputs; ++i)
        if (!g_used[i])
            acc.warn(DiagCode::UnusedPlanInput, i, kNoWire, [&] {
                return "garbler plan input " + std::to_string(i) +
                       " is wired to no component port";
            });
    for (uint32_t i = 0; i < plan.evaluatorInputs; ++i)
        if (!e_used[i])
            acc.warn(DiagCode::UnusedPlanInput, i, kNoWire, [&] {
                return "evaluator plan input " + std::to_string(i) +
                       " is wired to no component port";
            });

    // Flatten and reuse the netlist analyzer for the exact per-output
    // taint and the cost report. monolithic() re-validates through
    // check(), which runs this analysis structurally (deep = false),
    // so there is no recursion.
    const Netlist mono = plan.monolithic();
    CircuitLintOptions mopts;
    mopts.warnings = acc.opts.warnings;
    const CircuitLintReport mrep = analyzeNetlist(mono, mopts);
    acc.rep.cost = mrep.cost;
    for (const Diagnostic &d : mrep.diags) {
        if (d.code != DiagCode::InertOutput)
            continue;
        acc.warn(DiagCode::InertOutput, d.site, kNoWire,
                 [&] { return "plan " + d.message; });
    }
}

} // namespace

CircuitLintReport
analyzeNetlist(const Netlist &netlist, const CircuitLintOptions &opts)
{
    Accumulator acc(opts);
    if (checkNetlistStructure(netlist, acc) && acc.rep.errors == 0 &&
        opts.deep)
        analyzeNetlistDeep(netlist, acc);
    return std::move(acc.rep);
}

CircuitLintReport
analyzeChainPlan(const chain::ChainPlan &plan,
                 const CircuitLintOptions &opts)
{
    Accumulator acc(opts);
    if (checkPlanStructure(plan, acc))
        checkLinkTweaks(plan, acc);
    if (acc.rep.errors == 0 && opts.deep)
        analyzePlanDeep(plan, acc);
    return std::move(acc.rep);
}

} // namespace haac
