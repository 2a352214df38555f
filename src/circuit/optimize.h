/**
 * @file
 * Netlist-level cleanup passes run between the frontend and the HAAC
 * assembler: dead-gate elimination (drop logic that cannot reach an
 * output) and duplicate-gate merging (structural CSE). Both preserve
 * the canonical form and exact program semantics; both shrink Table 2
 * style gate counts, tables, and wire traffic downstream.
 */
#ifndef HAAC_CIRCUIT_OPTIMIZE_H
#define HAAC_CIRCUIT_OPTIMIZE_H

#include <cstdint>

#include "circuit/netlist.h"

namespace haac {

struct OptimizeStats
{
    uint32_t deadGatesRemoved = 0;
    uint32_t duplicatesMerged = 0;
};

/**
 * Remove gates whose outputs cannot reach a primary output.
 *
 * Inputs are never removed (the interface is fixed). Surviving gates
 * keep their relative order, so schedules stay comparable.
 */
Netlist eliminateDeadGates(const Netlist &netlist,
                           OptimizeStats *stats = nullptr);

/**
 * Structural common-subexpression elimination: gates with the same op
 * and operands (XOR/AND are commutative) collapse to one.
 *
 * Note: merging *increases* fanout, which can increase live wires on
 * HAAC — the compiler-explorer example lets you measure that tradeoff.
 */
Netlist mergeDuplicateGates(const Netlist &netlist,
                            OptimizeStats *stats = nullptr);

/**
 * The merge criterion, shared with the analyzer: per wire, the output
 * of the first earlier gate with the same op and (resolved) operands,
 * or the wire itself.
 */
std::vector<WireId> duplicateGateAliases(const Netlist &netlist);

/** Both passes to a fixed point (merge can create dead gates). */
Netlist optimizeNetlist(const Netlist &netlist,
                        OptimizeStats *stats = nullptr);

} // namespace haac

#endif // HAAC_CIRCUIT_OPTIMIZE_H
