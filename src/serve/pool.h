/**
 * @file
 * GarblePool: whole workloads garbled ahead of demand.
 *
 * A serving process that answers the same circuit over and over pays
 * the full garbling cost (AES over every AND gate) inside each
 * session's latency window. This PrebuiltPool (serve/prebuilt_pool.h,
 * which states the freshness invariant) keys a queue of ready
 * GarbledInstances by workload spec: filler threads run
 * captureGarbling() (gc/instance.h: StreamingGarbler into a capturing
 * sink), and a session thread pops one and replays it through the
 * instance overload of runRemoteGarbler().
 *
 * What an item holds: the instance's seed, its tables and its output
 * zero labels. The offset and input zero labels are re-derived from
 * the seed once per replay (GarbledInstance::inputLabels()), which
 * halves a small circuit's item: 1,052 bytes for Million:32, where
 * storing the input labels would take 2,096.
 *
 * Staleness: each spec's maker holds a copy of the netlist made at
 * track() time. A workload whose netlist changes identity must be
 * tracked under a new spec; the server's workload cache (net/server.h)
 * has the same lifetime, so both stay in sync.
 */
#ifndef HAAC_SERVE_POOL_H
#define HAAC_SERVE_POOL_H

#include <memory>
#include <string>

#include "circuit/netlist.h"
#include "gc/instance.h"
#include "serve/prebuilt_pool.h"

namespace haac {
namespace serve {

class GarblePool : public PrebuiltPool<std::unique_ptr<GarbledInstance>>
{
  public:
    using PrebuiltPool::PrebuiltPool;

    /**
     * Start keeping @p spec's queue full. Idempotent: re-tracking an
     * already-tracked spec is a no-op (the first netlist wins) and
     * copies nothing, so sessions can call it on every request.
     */
    void
    track(const std::string &spec, const Netlist &netlist)
    {
        if (tracks(spec))
            return;
        PrebuiltPool::track(spec, [netlist](uint64_t seed) {
            return std::make_unique<GarbledInstance>(
                captureGarbling(netlist, seed));
        });
    }
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_POOL_H
