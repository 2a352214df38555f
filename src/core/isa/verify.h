/**
 * @file
 * haac-lint: a static program verifier for the HAAC ISA.
 *
 * Everything here proves properties of a HaacProgram *without running
 * it* — the static complement to the differential conformance harness
 * (core/isa/conformance.h), which can only witness divergence one seed
 * at a time. The checks encode the contracts the rest of the stack
 * assumes:
 *
 *  - **address discipline**: operands name the OoRW sentinel or a wire
 *    at/after their own output (use-before-def). Because the ISA's
 *    output rule is implicit (out(k) = inputs + 1 + k), single
 *    assignment is structural and def-before-use implies the wire
 *    dependence graph is acyclic — so one linear scan proves both.
 *
 *  - **tweak uniqueness**: every AND's tweak keys the correlation-
 *    robust Half-Gate hashes. Two ANDs sharing a tweak collapse their
 *    hash domains, which breaks the security argument — tweak reuse is
 *    an *error*, not a style nit, even though every dynamic check
 *    would still pass on it.
 *
 *  - **liveness soundness** under the SWW window: an operand read
 *    below windowBase(out, swwWires) comes back through the OoRW
 *    queue, which replays DRAM spills — so its producer must carry the
 *    live bit or the hardware fabricates nothing and the run diverges.
 *    This is exactly the functional-divergence class the conformance
 *    fuzzer hunts by luck; the verifier proves its absence. Program
 *    outputs must be live for the same reason (decode reads DRAM).
 *
 *  - **liveness waste**: a live bit on a wire nobody ever reads
 *    off-window (and that is neither a program output nor a shard
 *    export) buys nothing and costs one label of DRAM write traffic —
 *    a warning, quantified in bytes.
 *
 *  - **NOP-output reads**: the plaintext oracle materializes a NOP's
 *    output as false while the machine never writes the wire at all; a
 *    program reading one is ill-formed by fiat.
 *
 *  - **stream consistency** (optional StreamSet): the per-GE queue
 *    streams must partition the program, rewrite exactly the
 *    off-window operands to the OoRW sentinel, and list the OoRW pops
 *    in operand order (a before b).
 *
 *  - **shard-manifest consistency** (optional ShardManifest): every
 *    cross-shard read must appear in the consumer's import list and
 *    the producer's export list, and every export must be live (the
 *    consuming shard fetches it from DRAM).
 *
 * Findings are Diagnostics (circuit/diagnostic.h): the site is the
 * instruction index and the line comes from the caller's source map,
 * when it has one.
 */
#ifndef HAAC_CORE_ISA_VERIFY_H
#define HAAC_CORE_ISA_VERIFY_H

#include <cstdint>
#include <vector>

#include "circuit/diagnostic.h"
#include "core/isa/program.h"

namespace haac {

struct StreamSet; // core/compiler/streams.h

/**
 * Shard import/export manifest in verifier-neutral form, so core/isa
 * does not depend on src/shard. shard::toLintManifest(plan) converts a
 * ShardPlan (src/shard/partition.h).
 */
struct ShardManifest
{
    /** Owning shard per program instruction. */
    std::vector<uint8_t> shardOfInstr;

    /** Per shard: wire addresses read here, produced elsewhere. */
    std::vector<std::vector<uint32_t>> imports;

    /** Per shard: wire addresses produced here, imported elsewhere. */
    std::vector<std::vector<uint32_t>> exports;
};

struct LintOptions
{
    /**
     * SWW capacity in wires. 0 runs the structural checks only
     * (everything that does not depend on the window geometry) — the
     * right mode for parse-time linting, where no config exists yet.
     */
    uint32_t swwWires = 0;

    /** Emit warnings (liveness waste, manifest slack, canonicality). */
    bool warnings = true;

    /** When set, also check queue-stream consistency. */
    const StreamSet *streams = nullptr;

    /** When set, also check shard import/export consistency. */
    const ShardManifest *shards = nullptr;

    /** Per-instruction 1-based source lines (AsmResult::instrLines). */
    const std::vector<uint32_t> *instrLines = nullptr;
};

/** The verifier's findings plus the liveness-waste total. */
struct LintReport : DiagReport
{
    /** Avoidable DRAM write traffic from liveness waste, in bytes. */
    uint64_t wasteBytes = 0;
};

/**
 * Run every applicable check over @p prog. Never simulates; runtime is
 * O(instructions · log instructions) and allocation-light, so the
 * compiler can afford it as a post-pass on every Debug build.
 */
LintReport verifyProgram(const HaacProgram &prog,
                         const LintOptions &opts = LintOptions{});

} // namespace haac

#endif // HAAC_CORE_ISA_VERIFY_H
