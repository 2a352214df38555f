/**
 * @file
 * HAAC compiler passes: reordering, renaming, eliminating spent wires
 * (paper §4.2), plus the pass-pipeline driver.
 *
 * Reordering produces a *permutation* of the program; renaming applies
 * it while rewriting operand addresses so the implicit-output invariant
 * (out(k) = numInputs + 1 + k) holds again. The two are fused in
 * applyOrder() because a reordered-but-unrenamed program is not
 * executable on HAAC (the paper likewise always runs RN after RO).
 */
#ifndef HAAC_CORE_COMPILER_PASSES_H
#define HAAC_CORE_COMPILER_PASSES_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/isa/program.h"

namespace haac {

/** Scheduling strategy (paper §4.2.1 and §6.2). */
enum class ReorderKind
{
    Baseline, ///< keep the frontend's depth-first order
    Full,     ///< global breadth-first (level) order
    Segment,  ///< level order within SWW/2-sized segments
};

const char *reorderKindName(ReorderKind kind);

/**
 * Compute a full (breadth-first) reordering: instructions sorted by
 * dependence level, stable within a level.
 *
 * @return order[i] = original index of the instruction that should run
 *         i-th.
 */
std::vector<uint32_t> reorderFull(const HaacProgram &prog);

/**
 * Segment reordering: partition the baseline order into contiguous
 * segments of @p segment_size instructions and level-sort within each,
 * preserving the baseline's wire locality across segments (§4.2.1).
 */
std::vector<uint32_t> reorderSegment(const HaacProgram &prog,
                                     uint32_t segment_size);

/**
 * Apply a reordering and rename output wires to program order
 * (paper Fig. 5: RO then RN). Input addresses are remapped; live bits
 * travel with their instruction; program outputs are remapped.
 */
HaacProgram applyOrder(const HaacProgram &prog,
                       const std::vector<uint32_t> &order);

/**
 * Eliminating Spent Wires (§4.2.3): set live bits only on wires that
 * are read by some instruction whose SWW window has slid past the
 * producer (i.e. wires that will come back through the OoRW queue) or
 * that are primary outputs. Everything else stays on-chip and is never
 * written to DRAM.
 *
 * @param sww_wires SWW capacity in wires.
 * @return number of live wires.
 */
uint64_t applyEsw(HaacProgram &prog, uint32_t sww_wires);

/** Mark every output live (the paper's no-ESW configuration). */
void clearEsw(HaacProgram &prog);

/** Knobs for the whole pipeline. */
struct CompileOptions
{
    ReorderKind reorder = ReorderKind::Full;
    bool esw = true;
    uint32_t swwWires = (2u * 1024 * 1024) / 16;
    /** 0 = default (half the SWW, the paper's best setting). */
    uint32_t segmentSize = 0;

    /**
     * Run the static verifier (core/isa/verify.h) over the compiled
     * program and throw std::logic_error on any error-level finding.
     * Debug builds always verify (and assert) regardless of this flag;
     * Release builds verify only when it is set — the pass is cheap
     * (one linear scan) but not free on multi-million-gate programs.
     */
    bool verify = false;
};

/** Summary statistics of a compiled program. */
struct CompileStats
{
    uint64_t liveWires = 0;
    uint64_t oorReads = 0;
    uint64_t instructions = 0;
    uint64_t andGates = 0;
};

/** Run reorder + rename + (optionally) ESW. */
HaacProgram compileProgram(const HaacProgram &baseline,
                           const CompileOptions &opts,
                           CompileStats *stats = nullptr);

/** Count OoR operand reads for a program at a given SWW size. */
uint64_t countOorReads(const HaacProgram &prog, uint32_t sww_wires);

} // namespace haac

#endif // HAAC_CORE_COMPILER_PASSES_H
