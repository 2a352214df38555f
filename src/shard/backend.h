/**
 * @file
 * ShardedSimBackend: the "haac-sim-sharded" registry entry.
 *
 * Session-facing wrapper over shard::runSharded(): compile once under
 * the session's options, shard per Session::withShards(), and fold the
 * merged result into the standard RunReport, including the `shard`
 * section. At one shard this reproduces the "haac-sim" backend bit for
 * bit — outputs, SimStats, and energy — which tests/test_shard.cc pins
 * across the VIP suite.
 */
#ifndef HAAC_SHARD_BACKEND_H
#define HAAC_SHARD_BACKEND_H

#include "api/backend.h"
#include "shard/coordinator.h"

namespace haac {

/** Shard count and endpoints come from the Session (withShards). */
class ShardedSimBackend : public Backend
{
  public:
    const char *name() const override { return "haac-sim-sharded"; }
    RunReport execute(const Session &session) override;
};

} // namespace haac

#endif // HAAC_SHARD_BACKEND_H
