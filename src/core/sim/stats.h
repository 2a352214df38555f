/**
 * @file
 * Simulation statistics: cycles, stall breakdown, traffic accounting,
 * and component activity counts (feeding the energy model).
 */
#ifndef HAAC_CORE_SIM_STATS_H
#define HAAC_CORE_SIM_STATS_H

#include <cstdint>
#include <vector>

namespace haac {

struct SimStats
{
    /** Total GE cycles from start to last write drained. */
    uint64_t cycles = 0;

    /** Wall-clock seconds at the 1 GHz GE clock. */
    double seconds() const { return double(cycles) * 1e-9; }

    /** @name Instruction mix */
    /// @{
    uint64_t instructions = 0;
    uint64_t andOps = 0;
    uint64_t xorOps = 0;
    uint64_t notOps = 0;
    /// @}

    /** @name Off-chip traffic (bytes) */
    /// @{
    uint64_t instrBytes = 0;
    uint64_t tableBytes = 0;
    uint64_t oorAddrBytes = 0;
    uint64_t oorDataBytes = 0;
    uint64_t liveWriteBytes = 0;
    uint64_t inputLoadBytes = 0;

    uint64_t
    totalTrafficBytes() const
    {
        return instrBytes + tableBytes + oorAddrBytes + oorDataBytes +
               liveWriteBytes + inputLoadBytes;
    }

    /** Wire-only traffic (Table 3 / Fig. 7's blue bars). */
    uint64_t
    wireTrafficBytes() const
    {
        return oorDataBytes + liveWriteBytes + inputLoadBytes;
    }
    /// @}

    /** @name Wire counts (Table 3 is reported in kilo-wires) */
    /// @{
    uint64_t liveWires = 0;
    uint64_t oorReads = 0;
    /// @}

    /** @name Stall breakdown (issue attempts that did not fire) */
    /// @{
    uint64_t stallOperand = 0;
    uint64_t stallInstrQueue = 0;
    uint64_t stallTableQueue = 0;
    uint64_t stallOorwQueue = 0;
    uint64_t stallBank = 0;
    uint64_t stallWriteBuffer = 0;
    /// @}

    /** @name On-chip activity (for the energy model) */
    /// @{
    uint64_t swwReads = 0;
    uint64_t swwWrites = 0;
    uint64_t forwardHits = 0;
    /// @}

    /** Instructions issued per GE (load-balance visibility). */
    std::vector<uint64_t> issuedPerGe;

    /** GE issue-slot utilization in [0, 1]. */
    double
    geUtilization() const
    {
        if (cycles == 0 || issuedPerGe.empty())
            return 0.0;
        return double(instructions) /
               (double(cycles) * double(issuedPerGe.size()));
    }
};

} // namespace haac

#endif // HAAC_CORE_SIM_STATS_H
