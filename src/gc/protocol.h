/**
 * @file
 * The two-party GC protocol with both parties in one process, and the
 * untimed-channel garble/evaluate timing.
 *
 * This is the software baseline the paper benchmarks HAAC against
 * ("EMP on the CPU") and the functional reference for everything the
 * hardware model computes. It is net/remote.h's two session runners
 * over a loopback pair, so its traffic is a real session's.
 */
#ifndef HAAC_GC_PROTOCOL_H
#define HAAC_GC_PROTOCOL_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "net/remote.h"

namespace haac {

/**
 * Run y = f(a, b) securely: runRemoteGarbler and runRemoteEvaluator
 * on two threads over a LoopbackTransport pair. The OT draws fresh
 * entropy; nothing in the result depends on it. Returns the
 * evaluator's view; if either side throws, the first error is
 * rethrown once both have stopped.
 *
 * @param netlist the function (canonical netlist).
 * @param garbler_bits Alice's input bits.
 * @param evaluator_bits Bob's input bits.
 * @param seed garbling randomness.
 */
RemoteResult runProtocol(const Netlist &netlist,
                         const std::vector<bool> &garbler_bits,
                         const std::vector<bool> &evaluator_bits,
                         uint64_t seed = 0x4841414331ull);

/**
 * Timing breakdown of the software pipeline, for CPU-baseline numbers.
 */
struct SoftwareGcTiming
{
    double garbleSeconds = 0;
    double evaluateSeconds = 0;
    uint64_t gates = 0;
};

/** Garble + evaluate once, wall-clock timed (no channel overheads). */
SoftwareGcTiming timeSoftwareGc(const Netlist &netlist, uint64_t seed = 1);

} // namespace haac

#endif // HAAC_GC_PROTOCOL_H
