/**
 * @file
 * Shard coordinator: one compiled circuit, M workers, one RunReport.
 *
 * The coordinator owns every decision: it schedules the program once
 * (buildStreams), partitions the per-GE streams into M shards, marks
 * cross-shard wires live so their labels genuinely travel off-chip,
 * dispatches one Job per shard over a framed Transport (in-process
 * loopback threads by default, `haac_server --shard-worker` processes
 * when endpoints are given), and then iterates timing Rounds: each
 * round replays the workers' export-ready cycles back as the next
 * round's import-ready cycles, until the cross-shard schedule reaches
 * a fixed point (the wire dependence graph is acyclic, so iteration
 * from zero converges; maxRounds bounds pathological depth). The final
 * round is the measured multi-core schedule — aggregate cycles honor
 * every cross-shard dependency stall, which is exactly the "where do
 * cores stop scaling" number the ablation_multicore model guesses at.
 *
 * The machine model is fixed: the M shards share one memory package,
 * so each sees 1/M of the DRAM bandwidth (the ablation_multicore
 * scenario), and a wire hops between shards through that DRAM in
 * cfg.dramLatency cycles.
 */
#ifndef HAAC_SHARD_COORDINATOR_H
#define HAAC_SHARD_COORDINATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/isa/program.h"
#include "core/sim/config.h"
#include "core/sim/engine.h"
#include "core/sim/stats.h"
#include "platform/energy_model.h"

namespace haac::shard {

struct ShardOptions
{
    /** Shards to run (clamped to [1, cfg.numGes]). */
    uint32_t shards = 2;

    /**
     * Worker endpoints, "host:port" (a `haac_server --shard-worker`).
     * Shard s connects to workers[s % workers.size()], so one address
     * can serve every shard when the server pool is deep enough
     * (--threads >= shards, or the round-trip deadlocks). Empty: spawn
     * in-process loopback worker threads.
     */
    std::vector<std::string> workers;

    /** Timing iterations before giving up on a fixed point. */
    uint32_t maxRounds = 8;
};

/** Merged result of one sharded execution. */
struct ShardRunResult
{
    /** Cross-shard aware merge: sums, with cycles = slowest shard. */
    SimStats stats;
    EnergyBreakdown energy;

    std::vector<bool> outputs;
    bool hasOutputs = false;

    /** @name Shard telemetry */
    /// @{
    uint32_t shards = 1;
    uint32_t requested = 1;
    uint32_t rounds = 0;
    bool converged = true;
    uint64_t crossWires = 0;
    /** Wires ESW had parked on-chip that sharding forced off-chip. */
    uint64_t liveFlipped = 0;
    std::vector<uint64_t> shardCycles;
    std::vector<uint64_t> shardInstructions;
    /// @}
};

/**
 * Run @p prog (already compiled; taken by value because cross-shard
 * exports get their live bits set) across opts.shards workers.
 *
 * @param want_values run the functional pass too, so the result
 *        carries circuit outputs assembled from worker-produced wire
 *        values (checked against the coordinator's own evaluation).
 *        The input bit vectors are only read when this is set.
 * @throws NetError on worker/transport failure, std::runtime_error
 *         when a worker's values diverge from the coordinator's,
 *         std::invalid_argument when a split bandwidth share would
 *         fall below HaacConfig::kMinDramBandwidthScale.
 */
ShardRunResult runSharded(HaacProgram prog, const HaacConfig &cfg,
                          SimMode mode, const ShardOptions &opts,
                          const std::vector<bool> &garbler_bits,
                          const std::vector<bool> &evaluator_bits,
                          bool want_values);

} // namespace haac::shard

#endif // HAAC_SHARD_COORDINATOR_H
