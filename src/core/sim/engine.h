/**
 * @file
 * The HAAC cycle-level performance model (paper §3 and §5 "Simulator").
 *
 * One engine implements three evaluation modes:
 *  - Combined: compute pipelines + streaming queues + shared DRAM;
 *    this produces the headline numbers (Figs. 6, 8, 10).
 *  - ComputeOnly: ideal memory; isolates GE execution (Fig. 7 red).
 *  - TrafficOnly: free compute; isolates off-chip movement (Fig. 7
 *    blue, which the paper further narrows to wire bytes only — see
 *    SimStats::wireTrafficBytes).
 *
 * The same machinery, run compute-only with a global in-order
 * dispatcher, is the compiler's GE-mapping pass (recordSchedule);
 * hardware then replays that mapping, as in the paper.
 */
#ifndef HAAC_CORE_SIM_ENGINE_H
#define HAAC_CORE_SIM_ENGINE_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/compiler/streams.h"
#include "core/isa/program.h"
#include "core/sim/config.h"
#include "core/sim/stats.h"

namespace haac {

enum class SimMode
{
    Combined,
    ComputeOnly,
    TrafficOnly,
};

/**
 * Compiler-side scheduling pass: map instructions to non-stalled GEs
 * cycle by cycle (ideal streams, full hazard model) and record the
 * per-GE order for hardware replay.
 */
StreamSet recordSchedule(const HaacProgram &prog, const HaacConfig &cfg);

/** One GE's streaming-queue occupancy at a probed cycle. */
struct GeQueueView
{
    /** @name Per queue: entries on chip, capacity, consumed, total */
    /// @{
    uint64_t instrReady = 0, instrCapacity = 0, instrConsumed = 0,
             instrTotal = 0;
    uint64_t tableReady = 0, tableCapacity = 0, tableConsumed = 0,
             tableTotal = 0;
    uint64_t oorReady = 0, oorCapacity = 0, oorConsumed = 0,
             oorTotal = 0;
    /// @}

    /** Progress through this GE's instruction stream. */
    uint64_t streamPos = 0, streamLen = 0;

    /** Global index of the next instruction to issue (kNoInstr: done). */
    uint32_t nextInstr = ~uint32_t(0);
};

inline constexpr uint32_t kNoInstr = ~uint32_t(0);

/** Everything a SimProbe sees at the end of a simulated cycle. */
struct SimProbeView
{
    uint64_t cycle = 0;
    std::vector<GeQueueView> ges;

    /** SWW bank-port grants this cycle (index = global bank id). */
    std::vector<uint8_t> bankAccesses;

    /** Outbound write-combining buffer occupancy (bytes). */
    uint64_t pendingWriteBytes = 0;

    const SimStats *stats = nullptr;
};

/**
 * Observation hook for stepping the timing engine cycle by cycle
 * (tools/haac_dbg is the main client). onIssue fires for every issued
 * instruction; onCycle fires once per simulated cycle after that
 * cycle's issue attempts — return false to stop the run early, in
 * which case runSimulation returns the statistics accumulated so far.
 */
class SimProbe
{
  public:
    virtual ~SimProbe() = default;
    virtual void onIssue(uint64_t cycle, uint32_t ge,
                         uint32_t instrIdx, const HaacInstruction &ins,
                         uint32_t outAddr);
    virtual bool onCycle(const SimProbeView &view);
};

/**
 * A run that cannot finish: instructions remain, but every GE left
 * waits on a wire that no stream, input or import produces, so no
 * event can ever let one issue.
 */
struct SimStalledError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Run the timing model over a scheduled program.
 *
 * @param prog   compiled program (absolute addresses, live bits set).
 * @param cfg    hardware configuration.
 * @param streams output of buildStreams()/recordSchedule().
 * @param mode   see SimMode.
 * @param probe  optional cycle-by-cycle observer (see SimProbe).
 * @throws SimStalledError if the program can never finish.
 */
SimStats runSimulation(const HaacProgram &prog, const HaacConfig &cfg,
                       const StreamSet &streams,
                       SimMode mode = SimMode::Combined,
                       SimProbe *probe = nullptr);

/**
 * Wires this engine does not produce itself (they belong to another
 * shard of the same program): each addrs[i] becomes usable — both for
 * in-window operand reads and for OoRW fetches — at readyCycles[i].
 */
struct RemoteWireEnv
{
    std::vector<uint32_t> addrs;
    std::vector<uint64_t> readyCycles; ///< parallel to addrs
};

struct ShardSimResult
{
    SimStats stats;
    /** Cycle each requested export address reaches DRAM, in order. */
    std::vector<uint64_t> exportReady;
};

/**
 * Run the timing model over one shard of a scheduled program: @p shard
 * carries only this shard's GE streams (cfg.numGes must equal
 * shard.ge.size()), @p imports marks when remote-produced wires become
 * usable, and the ready times of @p exports are harvested for the
 * coordinator's cross-shard dependency merge. With an empty import set
 * and the full stream set this is exactly runSimulation(). Throws
 * SimStalledError where an import the streams read is missing.
 */
ShardSimResult runShardSimulation(const HaacProgram &prog,
                                  const HaacConfig &cfg,
                                  const StreamSet &shard, SimMode mode,
                                  const RemoteWireEnv &imports,
                                  const std::vector<uint32_t> &exports);

/** Convenience: build streams and run in one call. */
SimStats simulate(const HaacProgram &prog, const HaacConfig &cfg,
                  SimMode mode = SimMode::Combined);

} // namespace haac

#endif // HAAC_CORE_SIM_ENGINE_H
