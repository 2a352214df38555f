/**
 * @file
 * HAAC accelerator configuration (paper §3, §5 methodology).
 *
 * Defaults match the paper's evaluated design point: 16 GEs, 2 MB SWW,
 * 4 banks per GE, 64 KB of queue SRAM, GEs at 1 GHz with the SWW at
 * 2 GHz, DDR4-4400 at 35.2 GB/s (HBM2 at 512 GB/s as the alternative),
 * Garbler/Evaluator Half-Gate pipelines of 21/18 stages.
 */
#ifndef HAAC_CORE_SIM_CONFIG_H
#define HAAC_CORE_SIM_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "crypto/label.h"

namespace haac {

/** Which party's datapath the accelerator implements (§3.2). */
enum class Role
{
    Garbler,
    Evaluator,
};

/** "garbler" or "evaluator", as reports and diagnostics print it. */
const char *roleName(Role role);

/** Off-chip memory technology (§5). */
enum class DramKind
{
    Ddr4,  ///< DDR4-4400, 35.2 GB/s
    Hbm2,  ///< HBM2 PHY, 512 GB/s
};

/** Bytes per GE-cycle (1 GHz GE clock makes GB/s == B/cycle). */
double dramBytesPerCycle(DramKind kind);

struct HaacConfig
{
    uint32_t numGes = 16;
    size_t swwBytes = 2 * 1024 * 1024;
    uint32_t banksPerGe = 4;
    DramKind dram = DramKind::Ddr4;
    Role role = Role::Evaluator;

    /** Cross-GE wire forwarding network (§3.2); off for the ablation. */
    bool forwarding = true;

    /** Total queue SRAM shared by instr/table/OoRW queues (Table 4). */
    size_t queueSramBytes = 64 * 1024;

    /**
     * Outbound (live wires / Garbler tables) write-combining buffer;
     * issue backpressures when it fills, so the Garbler's table
     * stream costs bandwidth just as the Evaluator's does.
     */
    size_t writeBufferBytes = 16 * 1024;

    /** DRAM access latency in GE cycles (stream fill delay). */
    uint32_t dramLatency = 100;

    /**
     * Fraction of the package bandwidth this core sees (1.0 = all of
     * it). The sharded runtime sets 1/M per shard so M cores share one
     * memory package, the measured analogue of bench/ablation_multicore.
     * At least kMinDramBandwidthScale: the engine accrues budget cycle
     * by cycle, so host time per grant grows as 1/scale.
     */
    double dramBandwidthScale = 1.0;
    static constexpr double kMinDramBandwidthScale = 1.0 / 1024;

    /** @name Pipeline structure (§3.2) */
    /// @{
    uint32_t fetchDecodeStages = 2;
    uint32_t swwReadStages = 3; ///< addr to bank, read, data back
    uint32_t writebackStages = 2;
    uint32_t garblerHalfGateStages = 21;
    uint32_t evaluatorHalfGateStages = 18;
    uint32_t xorStages = 1;
    /// @}

    /**
     * Validate what the engine divides by, waits on or multiplies:
     * at least one GE and one bank per GE with the bank count in 32
     * bits, an SWW of at least two labels (the window slides in
     * halves) whose wire count fits 32 bits, a non-empty write
     * buffer and a bandwidth share in [1/1024, 1]. Configs from a peer
     * (shard Job frames) or the command line must pass before they
     * reach the engine.
     *
     * @return empty string if valid, else the first violation.
     */
    std::string check() const;

    /** SWW capacity in wires (one label + valid bit per slot). */
    uint32_t swwWires() const { return uint32_t(swwBytes / kLabelBytes); }

    /** Half-window: the slide granularity and default segment size. */
    uint32_t windowHalf() const { return swwWires() / 2; }

    uint32_t totalBanks() const { return numGes * banksPerGe; }

    /** Compute latency of an op in this role. */
    uint32_t
    computeLatency(bool is_and) const
    {
        if (!is_and)
            return xorStages;
        return role == Role::Garbler ? garblerHalfGateStages
                                     : evaluatorHalfGateStages;
    }

    /** Issue-to-operand-consumption depth (fetch/decode + read). */
    uint32_t
    frontendDepth() const
    {
        return fetchDecodeStages + swwReadStages;
    }
};

/**
 * Sliding-window base for an instruction producing address @p out:
 * the window covers [base, base + sww_wires) and slides in half-window
 * steps as the output frontier advances (§3.1.1).
 */
inline uint32_t
windowBase(uint32_t out, uint32_t sww_wires)
{
    const uint32_t half = sww_wires / 2;
    const uint32_t seg = out / half;
    return seg == 0 ? 0 : (seg - 1) * half;
}

/** Is @p addr resident in the SWW when the producer of @p out runs? */
inline bool
inWindow(uint32_t addr, uint32_t out, uint32_t sww_wires)
{
    return addr >= windowBase(out, sww_wires);
}

} // namespace haac

#endif // HAAC_CORE_SIM_CONFIG_H
