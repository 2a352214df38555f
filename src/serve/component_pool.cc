#include "serve/component_pool.h"

namespace haac {
namespace serve {

void
ComponentPool::track(const chain::ComponentSpec &spec)
{
    if (!spec.check().empty())
        return; // unbuildable specs can't be pooled
    PrebuiltPool::track(spec.name(), [spec](uint64_t seed) {
        return std::make_unique<chain::GarbledComponent>(
            chain::captureComponent(spec, seed));
    });
}

void
ComponentPool::trackPlan(const chain::ChainPlan &plan)
{
    for (const chain::ComponentSpec &spec : plan.nodes)
        track(spec);
}

chain::ComponentProvider
ComponentPool::provider()
{
    return [this](uint32_t, const chain::ComponentSpec &spec) {
        chain::AcquiredComponent acq;
        acq.component = tryPop(spec);
        acq.pooled = acq.component != nullptr;
        if (!acq.pooled)
            acq.component = std::make_unique<chain::GarbledComponent>(
                chain::captureComponent(spec, randomSeed()));
        return acq;
    };
}

} // namespace serve
} // namespace haac
