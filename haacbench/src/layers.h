/**
 * @file
 * The traced run's per-layer metrics: direct probes of each module,
 * and the net/serve numbers taken from a traced workload window.
 */
#ifndef HAACBENCH_LAYERS_H
#define HAACBENCH_LAYERS_H

#include "bench.h"
#include "workloads.h"

namespace hb {

/**
 * Time each layer's public functions directly: crypto, gc (on the
 * workload's circuit and OT batch size), chain, circuit (on the
 * workload's circuits), compiler + sim + api over the VIP fleet, and
 * loopback connects (recorded as net.connect spans).
 */
void probeLayers(const ProbeInputs &in, Result &r);

/** net.* and serve.* metrics of one traced window. */
void windowLayerMetrics(const Window &w, const LayerTimes &layer,
                        Result &r);

} // namespace hb

#endif // HAACBENCH_LAYERS_H
