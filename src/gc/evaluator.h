/**
 * @file
 * Half-Gate evaluation kernel (paper §2.1, Evaluator column).
 *
 * The Evaluator holds one active label per wire and, per AND gate,
 * performs two key expansions and two AES hashes (half the Garbler's),
 * consuming one 32 B garbled table from the table stream.
 * evaluateStreaming() (gc/streaming.h) walks a netlist with this kernel.
 */
#ifndef HAAC_GC_EVALUATOR_H
#define HAAC_GC_EVALUATOR_H

#include <cstdint>

#include "crypto/hash.h"
#include "crypto/label.h"

namespace haac {

/**
 * Evaluate one AND gate.
 *
 * @param a,b active input labels.
 * @param table the gate's garbled table.
 * @param gate_index must match the Garbler's tweak for this gate.
 */
Label evaluateAnd(const Label &a, const Label &b, const GarbledTable &table,
                  uint64_t gate_index);

/** Fixed-key variant (ablation only). */
Label evaluateAndFixedKey(const FixedKeyHasher &h, const Label &a,
                          const Label &b, const GarbledTable &table,
                          uint64_t gate_index);

} // namespace haac

#endif // HAAC_GC_EVALUATOR_H
