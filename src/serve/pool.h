/**
 * @file
 * GarblePool: background garbling ahead of demand.
 *
 * A serving process that answers the same circuit over and over pays
 * the full garbling cost (AES over every AND gate) inside each
 * session's latency window, even though garbling needs nothing from
 * the peer — only the netlist and fresh randomness. The pool moves
 * that work off the request path: filler threads run the two-phase
 * StreamingGarbler (gc/instance.h captures its outputs) into a
 * bounded per-spec queue of ready GarbledInstances, and a session
 * thread pops one and replays it through the instance overload of
 * runRemoteGarbler(). A pop on an empty queue is a miss — the caller
 * garbles inline, exactly the pre-pool behavior — so the pool is a
 * pure amortization layer with no correctness surface.
 *
 * What an item holds: the instance's seed, its tables and its output
 * zero labels. The offset and input zero labels are re-derived from
 * the seed once per replay (GarbledInstance::inputLabels()), which
 * halves a small circuit's item: 1,052 bytes for Million:32, where
 * storing the input labels would take 2,096. Depth x item size bounds
 * the pool's memory per spec.
 *
 * Security invariant: every instance is garbled from fresh randomness
 * and leaves the pool exactly once (tryPop() transfers ownership).
 * Replaying one instance to two evaluators would reuse wire labels
 * across sessions — the same class of leak as the PR 5 sim-OT seed
 * reuse — and tests/test_serve.cc replays that attack shape against
 * two pooled instances to pin the freshness.
 *
 * Staleness: entries are keyed by the spec string and hold a copy of
 * the netlist made at track() time. A workload whose netlist changes
 * identity must be tracked under a new spec; the server's workload
 * cache (net/server.h) has the same lifetime, so both stay in sync.
 */
#ifndef HAAC_SERVE_POOL_H
#define HAAC_SERVE_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuit/netlist.h"
#include "gc/instance.h"

namespace haac {
namespace serve {

struct PoolOptions
{
    /** Ready instances to keep per tracked spec (>= 1). */
    size_t depth = 4;
    /** Background filler threads shared across all specs. */
    size_t threads = 1;
    /**
     * Refill trigger (hysteresis for bursty traffic). 0, the
     * default, tops a queue back up after every pop. A value k > 0
     * lets a queue drain to below k ready-plus-inflight instances
     * before the fillers start, then fills back to depth — so a
     * prewarmed pool serves a burst without filler threads stealing
     * CPU from the sessions mid-burst. Clamped to depth.
     */
    size_t lowWater = 0;
    /**
     * Deterministic seed base for tests: instance i of a pool draws
     * seed seedBase + i. Zero (the default) draws each instance's
     * seed from the OS entropy source — the only safe setting when
     * real evaluators connect.
     */
    uint64_t seedBase = 0;
};

struct PoolStats
{
    uint64_t produced = 0; ///< instances garbled by filler threads
    uint64_t hits = 0;     ///< tryPop() served a ready instance
    uint64_t misses = 0;   ///< tryPop() found nothing (inline garble)
    uint64_t ready = 0;    ///< instances currently queued
    uint64_t tracked = 0;  ///< specs under management
};

/**
 * Bounded queues of ready garbled instances, refilled in the
 * background. Thread-safe; one pool serves a whole GcServer.
 */
class GarblePool
{
  public:
    explicit GarblePool(const PoolOptions &opts = {});
    ~GarblePool();

    GarblePool(const GarblePool &) = delete;
    GarblePool &operator=(const GarblePool &) = delete;

    /**
     * Start keeping @p spec's queue full. Idempotent: re-tracking an
     * already-tracked spec is a no-op (the first netlist wins).
     */
    void track(const std::string &spec, const Netlist &netlist);

    /**
     * Pop a ready instance for @p spec, or null when the queue is
     * empty or the spec untracked (counted as a miss — garble
     * inline). Ownership transfers: the pool never sees the instance
     * again, so it can never be replayed.
     */
    std::unique_ptr<GarbledInstance> tryPop(const std::string &spec);

    /** Block until every tracked spec's queue is full. */
    void prewarm();

    PoolStats stats() const;

  private:
    struct SpecQueue
    {
        Netlist netlist;
        std::deque<std::unique_ptr<GarbledInstance>> ready;
        size_t inflight = 0; ///< fillers garbling for this spec now
        bool filling = true; ///< between low-water trigger and full
    };

    void fillerLoop();

    PoolOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable work_; ///< queues got needy / stopping
    std::condition_variable full_; ///< an instance landed (prewarm)
    std::map<std::string, SpecQueue> specs_;
    std::vector<std::thread> fillers_;
    uint64_t produced_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t nextSeedOffset_ = 0;
    bool stop_ = false;
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_POOL_H
