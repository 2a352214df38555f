/**
 * @file
 * Differential conformance harness for the HAAC ISA (ROADMAP arc 4,
 * lc3tools-grader style).
 *
 * Three pieces:
 *
 *  - a seeded generator of random-but-well-formed HaacPrograms:
 *    acyclic by construction (operands always address earlier wires),
 *    mixed AND/XOR/NOT/NOP, operand locality skewed so some reads land
 *    below the SWW window (forcing OoRW traffic), and live bits chosen
 *    per ESW, all-live, or ESW-plus-random-extras. These are programs
 *    the circuit compiler would never emit — exactly the schedules the
 *    timing model has never seen;
 *
 *  - a differential check that runs one program through the plaintext
 *    oracle (executePlain), the full-fidelity functional machine
 *    (runFunctional: SWW windows, OoRW pop order, garbling invariant)
 *    driven by the timing model's recorded schedule, and the timing
 *    model itself (runSimulation), and diffs outputs wire-exact;
 *
 *  - a grader for hand-written `.haac` cases with `.test` expectation
 *    vectors (tests/asm/).
 *
 * Everything is deterministic in the seed, so any failure is a
 * committable regression case: fuzzConformance returns the offending
 * program as canonical `.haac` text with its inputs appended as a
 * `.test` vector.
 */
#ifndef HAAC_CORE_ISA_CONFORMANCE_H
#define HAAC_CORE_ISA_CONFORMANCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/isa/program.h"
#include "core/sim/config.h"

namespace haac {

/** Generator knobs. Defaults suit the ctest fuzz sweep. */
struct GenOptions
{
    uint32_t minInputs = 2; ///< party inputs (excl. const-one)
    uint32_t maxInputs = 20;
    uint32_t minInstrs = 4;
    uint32_t maxInstrs = 300;

    /** Percent chance an operand is drawn below the SWW window base. */
    uint32_t farOperandPct = 25;
};

/**
 * Generate one well-formed program. Deterministic: same (seed, opts,
 * sww_wires) => same program. The result always passes
 * HaacProgram::check() and is executable at @p sww_wires.
 */
HaacProgram generateProgram(uint64_t seed, const GenOptions &opts,
                            uint32_t sww_wires);

/**
 * Derive a small adversarial HaacConfig from @p seed: few GEs, tiny
 * SWW (64-256 wires, so windows slide constantly), cramped queue SRAM
 * and write buffer, both roles, forwarding on/off.
 */
HaacConfig conformanceConfig(uint64_t seed);

/** Outcome of one differential run, single-core or sharded. */
struct ConformanceResult
{
    bool ok = false;
    std::string error;

    std::vector<bool> expected; ///< plaintext oracle
    uint64_t cycles = 0;        ///< Combined cycles (slowest shard)
    uint64_t oorPops = 0;       ///< functional OoRW pops (single-core)
    uint32_t shards = 0;        ///< shards that actually ran (sharded)
    uint32_t rounds = 0;        ///< timing rounds to the fixed point
    uint64_t crossWires = 0;    ///< wires that hopped shards
};

using ShardConformanceResult = ConformanceResult;

/**
 * Run @p prog through oracle, functional machine, and timing model on
 * @p cfg with the given inputs; wire-exact output diff plus timing
 * sanity (every instruction issues, cycles advance).
 */
ConformanceResult checkConformance(const HaacProgram &prog,
                                   const HaacConfig &cfg,
                                   const std::vector<bool> &garbler,
                                   const std::vector<bool> &evaluator);

/**
 * Differential check of the multi-core path (arc-4 follow-on to
 * checkConformance): run @p prog through the plaintext oracle and
 * through the shard coordinator at @p shards in-process workers —
 * which drives runShardSimulation() per shard with real import/export
 * cross-shard timing — and diff the assembled outputs wire-exact.
 * Also checks shard telemetry sanity: the requested shard count ran,
 * the cross-shard schedule converged, every instruction retired
 * exactly once across shards, and cycles advance.
 *
 * The config's GE count is raised to @p shards when smaller (the
 * coordinator clamps shards to [1, numGes], and a silent 1-shard run
 * would test nothing).
 */
ConformanceResult
checkShardConformance(const HaacProgram &prog, const HaacConfig &cfg,
                      uint32_t shards,
                      const std::vector<bool> &garbler,
                      const std::vector<bool> &evaluator);

/** One fuzz failure, reproducible from the dump alone. */
struct FuzzFailure
{
    uint64_t programSeed = 0;
    std::string error;

    /**
     * The offending program as canonical .haac text, with the failing
     * inputs as a `.test` vector and the config as comments — drop it
     * into tests/asm/ as a regression case.
     */
    std::string haacDump;
};

struct FuzzSummary
{
    uint64_t programs = 0;
    uint64_t totalInstructions = 0;
    uint64_t totalOorPops = 0; ///< proof the window actually slid
    /** Proof labels genuinely hopped shards (sharded sweep). */
    uint64_t totalCrossWires = 0;
    std::vector<FuzzFailure> failures; ///< capped at 10
};

using ShardFuzzSummary = FuzzSummary;

/**
 * Generate and differentially check @p count programs derived from
 * @p seed (program i uses splitmix64-mixed seed+i, its own config,
 * and its own random inputs) with checkConformance().
 */
FuzzSummary fuzzConformance(uint64_t seed, uint32_t count,
                            const GenOptions &opts = GenOptions{});

/**
 * The same sweep through checkShardConformance() at @p shards workers:
 * program i here is program i of fuzzConformance (same seed
 * derivation, config, and inputs), so a divergence here and not there
 * isolates the sharded path.
 */
FuzzSummary fuzzShardConformance(uint64_t seed, uint32_t count,
                                 uint32_t shards,
                                 const GenOptions &opts = GenOptions{});

/** Grader outcome for one hand-written .haac case. */
struct AsmCaseResult
{
    bool ok = false;
    std::string error;
    uint32_t vectorsRun = 0;
};

/**
 * Grader mode: parse @p path and run every `.test` vector through the
 * oracle + functional machine + timing model on @p cfg. A case with no
 * `.test` vectors fails (expectation files must expect something).
 */
AsmCaseResult runAsmCase(const std::string &path,
                         const HaacConfig &cfg);

} // namespace haac

#endif // HAAC_CORE_ISA_CONFORMANCE_H
