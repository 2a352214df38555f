/**
 * @file
 * Shard worker: the passive half of the sharded simulator.
 *
 * A worker owns no policy. It accepts one Job (program + its shard's
 * streams + manifests), answers each Round with a fresh cycle-level
 * simulation of its shard under the announced import ready-times, and
 * returns on Quit or peer hangup. The same loop serves an in-process
 * loopback thread (the default backend path), a `haac_server
 * --shard-worker` pool slot, or a bare TCP connection — the transport
 * is the only difference.
 */
#ifndef HAAC_SHARD_WORKER_H
#define HAAC_SHARD_WORKER_H

#include <cstdint>

#include "core/sim/stats.h"
#include "net/transport.h"

namespace haac::shard {

/** What one worker session did (for server totals / reports). */
struct WorkerSummary
{
    uint64_t jobs = 0;
    uint64_t rounds = 0;
    /**
     * Distinct shard instructions served, counted once per job (the
     * same instructions re-simulate every timing round; rounds carry
     * the re-simulation count).
     */
    uint64_t instructions = 0;
    /** Stats of the last simulated round (valid when rounds > 0). */
    SimStats lastStats;
};

/**
 * Serve one already-handshaken coordinator until Quit.
 *
 * @throws NetError on transport failure or protocol violation, on a
 *         Job whose config, program, stream indices or wire addresses
 *         are out of range or too many (refused before any pass runs),
 *         and on a Round the Job's streams can never finish (an
 *         operand no stream, input or import produces).
 */
WorkerSummary runShardWorkerLoop(Transport &transport);

/** Handshake as PeerRole::ShardWorker, then runShardWorkerLoop(). */
WorkerSummary serveShardWorker(Transport &transport);

} // namespace haac::shard

#endif // HAAC_SHARD_WORKER_H
