/**
 * @file
 * ComponentPool: pre-garbled standard components, ahead of any plan.
 *
 * GarblePool (serve/pool.h) amortizes garbling per *circuit* — it can
 * only pre-garble workloads the server has already seen verbatim. The
 * chaining layer (chain/link.h) breaks that coupling: circuits are
 * DAGs of standard components, and components garble independently of
 * the plan that will contain them. This PrebuiltPool (serve/
 * prebuilt_pool.h, which states the freshness invariant) keys a queue
 * of ready GarbledComponents by ComponentSpec::name(), so the
 * request-time cost of a *never-before-seen* plan collapses to
 * link-table construction.
 *
 * Items are seed-backed GarbledInstances (gc/instance.h): seed, tables
 * and output zero labels. The chained garbler expands each component's
 * offset and input labels from its seed once per session.
 */
#ifndef HAAC_SERVE_COMPONENT_POOL_H
#define HAAC_SERVE_COMPONENT_POOL_H

#include <memory>

#include "chain/component.h"
#include "chain/link.h"
#include "serve/pool.h"

namespace haac {
namespace serve {

class ComponentPool
    : public PrebuiltPool<std::unique_ptr<chain::GarbledComponent>>
{
  public:
    using PrebuiltPool::PrebuiltPool;

    /** Start keeping @p spec's queue full (idempotent). */
    void track(const chain::ComponentSpec &spec);

    /** Track every distinct component a plan instantiates. */
    void trackPlan(const chain::ChainPlan &plan);

    /**
     * Pop a ready component, or null on empty queue / untracked spec
     * (a miss — caller garbles inline). Ownership transfers.
     */
    std::unique_ptr<chain::GarbledComponent>
    tryPop(const chain::ComponentSpec &spec)
    {
        return PrebuiltPool::tryPop(spec.name());
    }

    /**
     * A ComponentProvider backed by this pool: pops when a component
     * is ready (pooled = true), garbles inline on a miss. The pool
     * must outlive every protocol run using the provider.
     */
    chain::ComponentProvider provider();
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_COMPONENT_POOL_H
