/**
 * @file
 * End-to-end two-party GC protocol runner (garble + transfer + evaluate).
 *
 * This is the software baseline the paper benchmarks HAAC against
 * ("EMP on the CPU") and the functional reference for everything the
 * hardware model computes.
 */
#ifndef HAAC_GC_PROTOCOL_H
#define HAAC_GC_PROTOCOL_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "gc/channel.h"

namespace haac {

/** Result of one secure execution. */
struct ProtocolResult
{
    std::vector<bool> outputs;

    /** @name Communication accounting
     *
     * The four categories count garbler→evaluator payload;
     * otUplinkBytes is the evaluator→garbler OT traffic (base-OT
     * public key + masked columns).
     */
    /// @{
    size_t tableBytes = 0;
    size_t inputLabelBytes = 0;
    size_t otBytes = 0;
    size_t otUplinkBytes = 0;
    size_t outputDecodeBytes = 0;
    /** Garbler→evaluator total (sum of the four categories). */
    size_t totalBytes = 0;
    /// @}
};

/**
 * Run y = f(a, b) securely, both parties in this process: base OT +
 * IKNP extension for the evaluator's labels (OT randomness derived
 * from @p seed, so a run is deterministic), then tables, garbler
 * labels and decode bits. The in-process reference the remote runners
 * (net/remote.h) match byte for byte.
 *
 * @param netlist the function (canonical netlist).
 * @param garbler_bits Alice's input bits.
 * @param evaluator_bits Bob's input bits.
 * @param seed garbling and OT randomness.
 */
ProtocolResult runProtocol(const Netlist &netlist,
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

    double
    garbledGatesPerSecond() const
    {
        return garbleSeconds > 0 ? double(gates) / garbleSeconds : 0;
    }
};

/** Garble + evaluate once, wall-clock timed (no channel overheads). */
SoftwareGcTiming timeSoftwareGc(const Netlist &netlist, uint64_t seed = 1);

} // namespace haac

#endif // HAAC_GC_PROTOCOL_H
