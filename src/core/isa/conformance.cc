#include "core/isa/conformance.h"

#include <algorithm>
#include <sstream>

#include "core/compiler/passes.h"
#include "core/isa/asm.h"
#include "core/isa/disasm.h"
#include "core/isa/verify.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "crypto/prg.h"
#include "shard/coordinator.h"

namespace haac {

namespace {

/**
 * Addresses whose value a later instruction may read. NOP outputs are
 * excluded on purpose: the plaintext oracle materializes them as false
 * while the functional machine never writes the wire at all, so a
 * program that reads one is ill-formed rather than a conformance
 * disagreement (the assembler's operand rule permits it only because
 * the textual form cannot know an operand's producer opcode).
 */
uint32_t
pickOperand(Prg &rng, const std::vector<uint32_t> &readable,
            uint32_t out, uint32_t sww_wires, uint32_t far_pct)
{
    const uint32_t base = windowBase(out, sww_wires);
    if (far_pct > 0 && base > 1 && rng.nextRange(100) < far_pct) {
        // readable is ascending; everything strictly below the window
        // base must come back through the OoRW queue.
        const auto it = std::lower_bound(readable.begin(),
                                         readable.end(), base);
        const size_t far = size_t(it - readable.begin());
        if (far > 0)
            return readable[rng.nextRange(far)];
    }
    return readable[rng.nextRange(readable.size())];
}

std::string
bitString(const std::vector<bool> &bits)
{
    std::string s;
    s.reserve(bits.size());
    for (bool b : bits)
        s.push_back(b ? '1' : '0');
    return s;
}

/**
 * The prologue of both differential checks: refuse an ill-formed
 * program, then record the plaintext oracle's outputs in @p res.
 */
bool
startCheck(const HaacProgram &prog, const std::vector<bool> &garbler,
           const std::vector<bool> &evaluator, ConformanceResult &res)
{
    const std::string bad = prog.check();
    if (!bad.empty()) {
        res.error = "program fails check(): " + bad;
        return false;
    }
    res.expected = executePlain(prog, garbler, evaluator);
    return true;
}

/**
 * Wire-exact diff of the @p outputs that @p machine produced against
 * the oracle's in @p res; @p tag names the machine in a per-wire
 * mismatch.
 */
bool
matchesOracle(const HaacProgram &prog, const std::vector<bool> &outputs,
              const char *machine, const char *tag,
              ConformanceResult &res)
{
    if (outputs.size() != res.expected.size()) {
        res.error = std::string(machine) + " returned " +
                    std::to_string(outputs.size()) +
                    " outputs, oracle has " +
                    std::to_string(res.expected.size());
        return false;
    }
    for (size_t i = 0; i < res.expected.size(); ++i) {
        if (outputs[i] != res.expected[i]) {
            std::ostringstream os;
            os << "output " << i << " (wire w" << prog.outputs[i]
               << "): " << tag << "=" << outputs[i]
               << " oracle=" << res.expected[i];
            res.error = os.str();
            return false;
        }
    }
    return true;
}

/**
 * The one fuzz sweep: program i, its config and its inputs derive from
 * @p seed alone. @p shards == 0 checks each program with
 * checkConformance(), otherwise with checkShardConformance() at that
 * many workers.
 */
FuzzSummary
fuzzSweep(uint64_t seed, uint32_t count, uint32_t shards,
          const GenOptions &opts)
{
    constexpr size_t kMaxStoredFailures = 10;
    FuzzSummary sum;

    for (uint32_t i = 0; i < count; ++i) {
        const uint64_t pseed = splitmix64(seed + 0x9e3779b97f4a7c15ull * (i + 1));
        const HaacConfig cfg = conformanceConfig(pseed);
        const HaacProgram prog =
            generateProgram(pseed, opts, cfg.swwWires());

        Prg in(splitmix64(pseed ^ 0x484141434954ull)); // "HAACIT"
        std::vector<bool> g(prog.numGarblerInputs);
        std::vector<bool> e(prog.numEvaluatorInputs);
        for (size_t j = 0; j < g.size(); ++j)
            g[j] = in.nextBit();
        for (size_t j = 0; j < e.size(); ++j)
            e[j] = in.nextBit();

        const ConformanceResult r =
            shards == 0 ? checkConformance(prog, cfg, g, e)
                        : checkShardConformance(prog, cfg, shards, g, e);
        ++sum.programs;
        sum.totalInstructions += prog.instrs.size();
        sum.totalOorPops += r.oorPops;
        sum.totalCrossWires += r.crossWires;
        if (r.ok)
            continue;

        if (sum.failures.size() < kMaxStoredFailures) {
            FuzzFailure f;
            f.programSeed = pseed;
            f.error = r.error;

            std::ostringstream os;
            os << (shards == 0 ? "; " : "; shard ")
               << "conformance failure: " << r.error << "\n";
            os << "; program seed: " << pseed << "\n";
            if (shards != 0)
                os << "; shards: " << shards << "\n";
            os << "; config: ges=" << std::max(cfg.numGes, shards)
               << " sww_wires=" << cfg.swwWires()
               << " banks_per_ge=" << cfg.banksPerGe
               << " role=" << roleName(cfg.role)
               << " forwarding=" << (cfg.forwarding ? 1 : 0)
               << " queue_sram=" << cfg.queueSramBytes
               << " write_buffer=" << cfg.writeBufferBytes
               << " dram_latency=" << cfg.dramLatency << "\n";
            os << toAsm(prog);
            os << ".test garbler=" << bitString(g)
               << " evaluator=" << bitString(e)
               << " expect=" << bitString(r.expected) << "\n";
            f.haacDump = os.str();
            sum.failures.push_back(std::move(f));
        }
    }
    return sum;
}

} // namespace

HaacProgram
generateProgram(uint64_t seed, const GenOptions &opts,
                uint32_t sww_wires)
{
    Prg rng(splitmix64(seed ^ 0x4841414347454eull)); // "HAACGEN"
    HaacProgram prog;

    const uint32_t min_in = std::max<uint32_t>(2, opts.minInputs);
    const uint32_t max_in = std::max(min_in, opts.maxInputs);
    const uint32_t parties =
        min_in + uint32_t(rng.nextRange(max_in - min_in + 1));
    prog.numGarblerInputs = 1 + uint32_t(rng.nextRange(parties - 1));
    prog.numEvaluatorInputs = parties - prog.numGarblerInputs;

    const bool const_one = rng.nextBit();
    prog.numInputs = parties + (const_one ? 1 : 0);
    prog.constOneAddr = const_one ? prog.numInputs : kOorAddr;

    const uint32_t min_n = std::max<uint32_t>(1, opts.minInstrs);
    const uint32_t max_n = std::max(min_n, opts.maxInstrs);
    const uint32_t n =
        min_n + uint32_t(rng.nextRange(max_n - min_n + 1));

    std::vector<uint32_t> readable;
    readable.reserve(prog.numInputs + n);
    for (uint32_t addr = 1; addr <= prog.numInputs; ++addr)
        readable.push_back(addr);

    uint32_t and_count = 0;
    prog.instrs.reserve(n);
    for (uint32_t k = 0; k < n; ++k) {
        const uint32_t out = prog.outputAddrOf(k);
        HaacInstruction ins;

        const uint64_t roll = rng.nextRange(100);
        if (roll < 40)
            ins.op = HaacOp::Xor;
        else if (roll < 70)
            ins.op = HaacOp::And;
        else if (roll < 90)
            ins.op = HaacOp::Not;
        else
            ins.op = HaacOp::Nop;

        ins.a = pickOperand(rng, readable, out, sww_wires,
                            opts.farOperandPct);
        if (ins.op == HaacOp::And || ins.op == HaacOp::Xor)
            ins.b = pickOperand(rng, readable, out, sww_wires,
                                opts.farOperandPct);
        else
            ins.b = ins.a; // canonical form for NOT/NOP

        ins.live = false;
        ins.tweak = ins.op == HaacOp::And ? and_count++ : 0;
        prog.instrs.push_back(ins);
        if (ins.op != HaacOp::Nop)
            readable.push_back(out);
    }

    // Program outputs: mostly recent values (a real circuit's shape),
    // occasionally anything readable — including primary inputs, which
    // exercises the functional machine's input-addressed output path.
    const size_t n_out = 1 + rng.nextRange(std::min<size_t>(
                                 8, readable.size()));
    const size_t recent = std::min<size_t>(32, readable.size());
    for (size_t i = 0; i < n_out; ++i) {
        if (rng.nextRange(100) < 80) {
            const size_t j = rng.nextRange(recent);
            prog.outputs.push_back(readable[readable.size() - 1 - j]);
        } else {
            prog.outputs.push_back(
                readable[rng.nextRange(readable.size())]);
        }
    }

    // Liveness: ESW-exact, everything live (no-ESW), or ESW plus
    // random extra spills (harmless supersets must also conform).
    const uint64_t live_roll = rng.nextRange(3);
    if (live_roll == 0) {
        applyEsw(prog, sww_wires);
    } else if (live_roll == 1) {
        clearEsw(prog);
    } else {
        applyEsw(prog, sww_wires);
        for (auto &ins : prog.instrs)
            if (rng.nextRange(8) == 0)
                ins.live = true;
    }
    return prog;
}

HaacConfig
conformanceConfig(uint64_t seed)
{
    Prg rng(splitmix64(seed ^ 0x484141434347ull)); // "HAACCG"
    HaacConfig cfg;

    static const uint32_t kGes[] = {1, 2, 4};
    static const uint32_t kSwwWires[] = {64, 128, 256};
    cfg.numGes = kGes[rng.nextRange(3)];
    cfg.swwBytes = size_t(kSwwWires[rng.nextRange(3)]) * kLabelBytes;
    cfg.banksPerGe = rng.nextBit() ? 4 : 2;
    cfg.role = rng.nextBit() ? Role::Garbler : Role::Evaluator;
    cfg.forwarding = rng.nextBit();
    cfg.queueSramBytes = rng.nextBit() ? 8192 : 2048;
    cfg.writeBufferBytes = rng.nextBit() ? 16 * 1024 : 512;
    cfg.dramLatency = rng.nextBit() ? 100 : 20;
    return cfg;
}

ConformanceResult
checkConformance(const HaacProgram &prog, const HaacConfig &cfg,
                 const std::vector<bool> &garbler,
                 const std::vector<bool> &evaluator)
{
    ConformanceResult res;
    if (!startCheck(prog, garbler, evaluator, res))
        return res;

    const StreamSet streams = recordSchedule(prog, cfg);

    // Static verification before any differential run: a program the
    // verifier rejects (dropped live bit, tweak reuse, stream
    // corruption, ...) must be refused here with the diagnostic code,
    // not discovered as a lucky divergence downstream.
    LintOptions lint;
    lint.swwWires = cfg.swwWires();
    lint.warnings = false;
    lint.streams = &streams;
    const LintReport lrep = verifyProgram(prog, lint);
    if (!lrep.clean()) {
        for (const Diagnostic &d : lrep.diags) {
            if (d.severity != Severity::Error)
                continue;
            res.error = "verifier: error[" +
                        std::string(diagCodeName(d.code)) +
                        "]: " + d.message;
            break;
        }
        return res;
    }

    const FunctionalResult fr =
        runFunctional(prog, streams, cfg, garbler, evaluator);
    if (!fr.ok) {
        res.error = "functional machine: " + fr.error;
        return res;
    }
    res.oorPops = fr.oorPops;
    if (!matchesOracle(prog, fr.outputs, "functional machine",
                       "functional", res))
        return res;

    // Timing model: the replay must retire exactly the program, in
    // every mode, and time must pass whenever work exists.
    static const SimMode kModes[] = {SimMode::Combined,
                                     SimMode::ComputeOnly,
                                     SimMode::TrafficOnly};
    static const char *kModeNames[] = {"Combined", "ComputeOnly",
                                       "TrafficOnly"};
    for (int m = 0; m < 3; ++m) {
        const SimStats st = runSimulation(prog, cfg, streams, kModes[m]);
        if (st.instructions != prog.instrs.size()) {
            res.error = std::string("timing model (") + kModeNames[m] +
                        ") issued " +
                        std::to_string(st.instructions) + " of " +
                        std::to_string(prog.instrs.size()) +
                        " instructions";
            return res;
        }
        if (!prog.instrs.empty() && st.cycles == 0) {
            res.error = std::string("timing model (") + kModeNames[m] +
                        ") reported zero cycles";
            return res;
        }
        if (kModes[m] == SimMode::Combined)
            res.cycles = st.cycles;
    }

    res.ok = true;
    return res;
}

ConformanceResult
checkShardConformance(const HaacProgram &prog, const HaacConfig &cfg,
                      uint32_t shards,
                      const std::vector<bool> &garbler,
                      const std::vector<bool> &evaluator)
{
    ConformanceResult res;
    if (!startCheck(prog, garbler, evaluator, res))
        return res;

    // The coordinator clamps shards to [1, numGes]; a config drawn
    // for the single-core sweep may carry fewer GEs than requested
    // shards, and a silently-clamped 1-shard run would test nothing.
    HaacConfig scfg = cfg;
    scfg.numGes = std::max(scfg.numGes, shards);

    shard::ShardOptions sopts;
    sopts.shards = shards;
    // Fuzz programs carry far deeper cross-shard dependency chains
    // than compiled circuits, and the fixed point propagates one hop
    // per round — the serving default of 8 rounds is not enough. The
    // wire graph is acyclic, so instrs + 2 rounds always converge.
    sopts.maxRounds =
        std::max<uint32_t>(sopts.maxRounds,
                           uint32_t(prog.instrs.size()) + 2);

    shard::ShardRunResult r;
    try {
        r = shard::runSharded(prog, scfg, SimMode::Combined, sopts,
                              garbler, evaluator,
                              /*want_values=*/true);
    } catch (const std::exception &ex) {
        res.error = std::string("sharded run threw: ") + ex.what();
        return res;
    }

    res.shards = r.shards;
    res.rounds = r.rounds;
    res.crossWires = r.crossWires;
    res.cycles = r.stats.cycles;

    if (r.shards != shards) {
        res.error = "coordinator ran " + std::to_string(r.shards) +
                    " of " + std::to_string(shards) +
                    " requested shards";
        return res;
    }
    if (!r.converged) {
        res.error = "cross-shard schedule did not converge in " +
                    std::to_string(r.rounds) + " rounds";
        return res;
    }

    uint64_t retired = 0;
    for (uint64_t n : r.shardInstructions)
        retired += n;
    if (retired != prog.instrs.size()) {
        res.error = "shards retired " + std::to_string(retired) +
                    " of " + std::to_string(prog.instrs.size()) +
                    " instructions";
        return res;
    }
    if (!prog.instrs.empty() && r.stats.cycles == 0) {
        res.error = "sharded timing reported zero cycles";
        return res;
    }

    if (!r.hasOutputs) {
        res.error = "sharded run produced no output values";
        return res;
    }
    if (!matchesOracle(prog, r.outputs, "sharded run", "sharded", res))
        return res;

    res.ok = true;
    return res;
}

FuzzSummary
fuzzConformance(uint64_t seed, uint32_t count, const GenOptions &opts)
{
    return fuzzSweep(seed, count, /*shards=*/0, opts);
}

FuzzSummary
fuzzShardConformance(uint64_t seed, uint32_t count, uint32_t shards,
                     const GenOptions &opts)
{
    return fuzzSweep(seed, count, shards, opts);
}

AsmCaseResult
runAsmCase(const std::string &path, const HaacConfig &cfg)
{
    AsmCaseResult res;

    const AsmResult parsed = parseAsmFile(path);
    if (!parsed.ok) {
        res.error = path + ": " + parsed.error;
        return res;
    }
    if (parsed.tests.empty()) {
        res.error = path + ": no .test vectors (expectation files "
                           "must expect something)";
        return res;
    }

    // Full static verification at the grader's window geometry, with
    // source lines mapped in. Error findings fail the case before a
    // single vector runs.
    LintOptions lint;
    lint.swwWires = cfg.swwWires();
    lint.instrLines = &parsed.instrLines;
    const LintReport lrep = verifyProgram(parsed.prog, lint);
    if (!lrep.clean()) {
        for (const Diagnostic &d : lrep.diags) {
            if (d.severity != Severity::Error)
                continue;
            res.error = formatDiagnostic(d, path);
            break;
        }
        return res;
    }

    for (const AsmTestVector &t : parsed.tests) {
        const std::vector<bool> oracle =
            executePlain(parsed.prog, t.garbler, t.evaluator);
        if (oracle != t.expect) {
            res.error = path + ": line " + std::to_string(t.line) +
                        ": oracle produced " + bitString(oracle) +
                        ", file expects " + bitString(t.expect);
            return res;
        }
        const ConformanceResult r =
            checkConformance(parsed.prog, cfg, t.garbler, t.evaluator);
        if (!r.ok) {
            res.error = path + ": line " + std::to_string(t.line) +
                        ": " + r.error;
            return res;
        }
        ++res.vectorsRun;
    }
    res.ok = true;
    return res;
}

} // namespace haac
