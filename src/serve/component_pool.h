/**
 * @file
 * ComponentPool: pre-garbled standard components, ahead of any plan.
 *
 * GarblePool (serve/pool.h) amortizes garbling per *circuit* — it can
 * only pre-garble workloads the server has already seen verbatim. The
 * chaining layer (chain/link.h) breaks that coupling: circuits are
 * DAGs of standard components, and components garble independently of
 * the plan that will contain them. This pool keeps a bounded queue of
 * ready GarbledComponents per (kind, width), so the request-time cost
 * of a *never-before-seen* plan collapses to link-table construction —
 * the whole point of ROADMAP arc 2's "garble once, link at request
 * time".
 *
 * The machinery mirrors GarblePool deliberately (filler threads,
 * low-water hysteresis, pop-transfers-ownership, miss = garble
 * inline); keyed by ComponentSpec::name() instead of a workload spec.
 * Items are seed-backed GarbledInstances (gc/instance.h): seed,
 * tables and output zero labels. The chained garbler expands each
 * component's offset and input labels from its seed once per session.
 *
 * The same security invariant applies: a popped component is gone —
 * linking one garbling into two sessions hands the second evaluator
 * both labels of every linked wire (tests/test_chain.cc replays the
 * attack).
 */
#ifndef HAAC_SERVE_COMPONENT_POOL_H
#define HAAC_SERVE_COMPONENT_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chain/component.h"
#include "chain/link.h"
#include "serve/pool.h"

namespace haac {
namespace serve {

/**
 * Bounded queues of ready garbled components, refilled in the
 * background. Thread-safe; one pool serves a whole GcServer. Reuses
 * PoolOptions / PoolStats from serve/pool.h — the knobs mean the same
 * thing per tracked component spec.
 */
class ComponentPool
{
  public:
    explicit ComponentPool(const PoolOptions &opts = {});
    ~ComponentPool();

    ComponentPool(const ComponentPool &) = delete;
    ComponentPool &operator=(const ComponentPool &) = delete;

    /** Start keeping @p spec's queue full (idempotent). */
    void track(const chain::ComponentSpec &spec);

    /** Track every distinct component a plan instantiates. */
    void trackPlan(const chain::ChainPlan &plan);

    /**
     * Pop a ready component, or null on empty queue / untracked spec
     * (a miss — caller garbles inline). Ownership transfers.
     */
    std::unique_ptr<chain::GarbledComponent>
    tryPop(const chain::ComponentSpec &spec);

    /** Block until every tracked spec's queue is full. */
    void prewarm();

    PoolStats stats() const;

    /**
     * A ComponentProvider backed by this pool: pops when a component
     * is ready (pooled = true), garbles inline on a miss. The pool
     * must outlive every protocol run using the provider.
     */
    chain::ComponentProvider provider();

  private:
    struct SpecQueue
    {
        chain::ComponentSpec spec;
        std::deque<std::unique_ptr<chain::GarbledComponent>> ready;
        size_t inflight = 0;
        bool filling = true;
    };

    void fillerLoop();

    PoolOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable work_;
    std::condition_variable full_;
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

#endif // HAAC_SERVE_COMPONENT_POOL_H
