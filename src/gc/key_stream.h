/**
 * @file
 * The half-gate tweak-key stream: the re-keyed hash's AES schedules,
 * expanded ahead of the netlist walk.
 *
 * A GC program is fully known before any label exists, and so is
 * every AND's tweak pair (2i, 2i+1 for the i-th AND in netlist order).
 * The two key expansions of each AND in the paper's Fig. 2 datapath
 * therefore depend on no label, and can be produced off the critical
 * path, the way HAAC decouples its instruction and table streams from
 * the gate engines.
 *
 * In builds with the VAES-512 kernels (HAAC_USE_VAES), and when
 * cpu::has(cpu::kVaes), the two netlist walks of gc/streaming.h take
 * this path: while the ANDs of one block of eight hash, the next
 * block's sixteen schedules are expanded four keys per VAES
 * instruction, and each gate then hashes with stored round keys — the
 * garbler's four blocks [a0, b0, a0^R, b0^R] in one 512-bit register,
 * the evaluator's [a, b] in one 256-bit register. Tables and labels are
 * byte-identical to garbleAnd()/evaluateAnd() (tests/test_gc.cc pins
 * the walks to them on every kernel tier).
 */
#ifndef HAAC_GC_KEY_STREAM_H
#define HAAC_GC_KEY_STREAM_H

#if defined(HAAC_USE_VAES)

#include "gc/streaming.h"

namespace haac {

/**
 * StreamingGarbler::run's gate walk on the key stream: @p zero holds
 * the input zero labels on entry and every wire's on return.
 * Requires cpu::has(cpu::kVaes).
 *
 * @return the number of tables emitted.
 */
uint64_t garbleGatesKeyed(const Netlist &netlist, std::vector<Label> &zero,
                          const Label &offset, TableSegmentSink &sink);

/** evaluateStreaming's gate walk on the key stream (same contract). */
void evaluateGatesKeyed(const Netlist &netlist,
                        std::vector<Label> &labels,
                        TableSegmentSource &source);

} // namespace haac

#endif // HAAC_USE_VAES

#endif // HAAC_GC_KEY_STREAM_H
