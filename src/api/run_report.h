/**
 * @file
 * RunReport: the one structured result every backend returns.
 *
 * A single execution — software GC on the CPU or the HAAC model — used
 * to scatter its results across RemoteResult, CompileStats, SimStats,
 * channel counters, and the energy model. RunReport merges them so
 * callers compare backends field by field, and serializes itself to one
 * JSON line so benchmark trajectories can accumulate without screen
 * scraping. Sections that a backend did not produce are flagged absent
 * (hasComm / hasSim / hasEnergy / hasOutputs) rather than zero-filled.
 */
#ifndef HAAC_API_RUN_REPORT_H
#define HAAC_API_RUN_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/compiler/passes.h"
#include "core/sim/config.h"
#include "core/sim/engine.h"
#include "core/sim/stats.h"
#include "platform/energy_model.h"

namespace haac {

/** Human-readable SimMode name ("combined", "compute", "traffic"). */
const char *simModeName(SimMode mode);

/** Human-readable DramKind name for serialization. */
const char *dramKindName(DramKind kind);

struct RunReport
{
    /** Registry name of the backend that produced this report. */
    std::string backend;
    /** Workload / circuit name (empty when the caller gave none). */
    std::string workload;
    /** Free-form caller tag, e.g. the compiler configuration swept. */
    std::string label;

    /** @name Circuit outputs */
    /// @{
    std::vector<bool> outputs;
    bool hasOutputs = false;
    /// @}

    /** @name Communication accounting (software GC backend) */
    /// @{
    struct Communication
    {
        uint64_t tableBytes = 0;
        uint64_t inputLabelBytes = 0;
        uint64_t otBytes = 0;
        /** Evaluator→garbler OT traffic (real OT only; see
         *  RemoteResult::otUplinkBytes). Not part of totalBytes,
         *  which counts garbler→evaluator payload. */
        uint64_t otUplinkBytes = 0;
        uint64_t outputDecodeBytes = 0;
        uint64_t totalBytes = 0;
    };
    Communication comm;
    bool hasComm = false;
    /// @}

    /** @name Networked execution (remote-gc backend / haac_server) */
    /// @{
    struct Net
    {
        /** GC role this endpoint played. */
        Role role = Role::Garbler;
        /** Transport description ("tcp:1.2.3.4:9000", "loopback:a"). */
        std::string endpoint;
        /** True wire bytes (frame headers and handshakes included). */
        uint64_t rawBytesSent = 0;
        uint64_t rawBytesReceived = 0;
        /** Fingerprint + result echo payload. */
        uint64_t controlBytes = 0;
        /** Frames the garbled-table stream used (one per segment). */
        uint64_t tableSegments = 0;
        /** Tables per segment the garbler streamed with. */
        uint32_t segmentTables = 0;
        uint64_t gates = 0;
    };
    Net net;
    bool hasNet = false;
    /// @}

    /** @name Sharded simulation (haac-sim-sharded backend) */
    /// @{
    struct Shard
    {
        /** Shards actually run (requested, clamped to GE count). */
        uint32_t shards = 1;
        uint32_t requested = 1;
        /** Timing iterations until the cross-shard fixed point. */
        uint32_t rounds = 0;
        bool converged = true;
        /** Wire addresses imported across a shard boundary. */
        uint64_t crossWires = 0;
        /** ESW-dead wires sharding forced back off-chip. */
        uint64_t liveFlipped = 0;
        /** Final-round cycles / instructions per shard. */
        std::vector<uint64_t> shardCycles;
        std::vector<uint64_t> shardInstructions;
    };
    Shard shard;
    bool hasShard = false;
    /// @}

    /** @name Accelerator pipeline (HAAC sim backend) */
    /// @{
    CompileStats compile;
    SimStats sim;
    bool hasSim = false;

    EnergyBreakdown energy;
    bool hasEnergy = false;
    /// @}

    /** @name Serving layer (src/serve: garble pool + OT setup reuse) */
    /// @{
    struct Serve
    {
        /** The garbler replayed a pooled GarbledInstance. */
        bool pooledGarbling = false;
        /** The session reused a cached base-OT + IKNP setup. */
        bool otSetupReused = false;
        /** Pool-wide counters at report time (PoolStats). */
        uint64_t poolHits = 0;
        uint64_t poolMisses = 0;
        /** Aggregate figures for multi-query reports (bench/). */
        uint64_t queries = 0;
        double queriesPerSecond = 0;
    };
    Serve serve;
    bool hasServe = false;
    /// @}

    /** @name Chained execution (src/chain: pre-garbled components) */
    /// @{
    struct Chain
    {
        /** Component instances linked into the session. */
        uint32_t components = 0;
        /** Label-translation tables shipped. */
        uint32_t links = 0;
        /** Link-table stream bytes (typed frames, headers included). */
        uint64_t linkBytes = 0;
        /** Frames the link-table stream used (one per linked node). */
        uint32_t linkFrames = 0;
        /** Components served pre-garbled from a ComponentPool. */
        uint32_t pooledComponents = 0;
    };
    Chain chain;
    bool hasChain = false;
    /// @}

    /** Configuration echo, so a serialized report is self-describing. */
    HaacConfig config;
    SimMode mode = SimMode::Combined;

    /** Host wall-clock seconds spent producing this report. */
    double hostSeconds = 0;

    /**
     * Gates the execution covered: netlist gates for the GC backends,
     * compiled instructions for the simulator (every gate becomes one
     * instruction). The basis of the derived gates_per_sec rate.
     */
    uint64_t gates = 0;

    /**
     * The time the backend models for the execution: simulated
     * accelerator seconds when available, otherwise host seconds.
     */
    double
    modeledSeconds() const
    {
        return hasSim ? sim.seconds() : hostSeconds;
    }

    /** Derived throughput over modeled time (0 when time is 0). */
    double
    gatesPerSecond() const
    {
        const double s = modeledSeconds();
        return s > 0 ? double(gates) / s : 0;
    }

    /**
     * Garbler→evaluator wire payload this run moved: measured protocol
     * bytes when communication was real, the simulator's modeled wire
     * traffic otherwise.
     */
    uint64_t
    wireBytes() const
    {
        if (hasComm)
            return comm.totalBytes;
        if (hasSim)
            return sim.wireTrafficBytes();
        return 0;
    }

    /** Derived wire bandwidth over modeled time (0 when time is 0). */
    double
    wireBytesPerSecond() const
    {
        const double s = modeledSeconds();
        return s > 0 ? double(wireBytes()) / s : 0;
    }

    /** One JSON object (single line, stable key order). */
    std::string toJson() const;
};

} // namespace haac

#endif // HAAC_API_RUN_REPORT_H
