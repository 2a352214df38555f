/**
 * @file
 * GcServer: N concurrent two-party GC sessions on a thread pool.
 *
 * Session establishment, both flavors:
 *
 *  - *Peer* (remote_millionaires): both processes hold the circuit;
 *    after the transport handshake pairs a garbler with an evaluator
 *    they go straight into the remote protocol.
 *  - *Server* (haac_server): the server answers the handshake with
 *    PeerRole::Server, the client follows with a workload-spec frame
 *    ("Million:32", "Hamm", ...), the server resolves it against the
 *    workload registry, acks, and plays whichever role the client did
 *    not claim, using the workload's sample bits for its own inputs.
 *
 * clientHello() performs the client half of both flavors; GcServer
 * workers perform the server half. Every completed session becomes
 * one standard RunReport — comm accounting plus the net section
 * (bytes, segments, wall time) — emitted as a JSON line to the
 * configured sink, so a fleet of sessions accumulates the same
 * trajectory format the benchmarks write.
 *
 * Connections are multi-session: after a session completes, the
 * server waits for another request frame (clientRequest() or
 * clientUploadRequest()); the peer closing ends the connection. Every
 * request takes one path: admit it (a registry spec, chain spec or
 * upload becomes a circuit plus ack text, or a NetError refusal), ack,
 * run and report. Repeat traffic is amortized by the serving layer
 * (src/serve): a per-connection base-OT cache, two bounded LRU caches
 * of resolved specs, and optional pools of pre-garbled instances.
 */
#ifndef HAAC_NET_SERVER_H
#define HAAC_NET_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "api/run_report.h"
#include "net/remote.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "serve/cache.h"
#include "workloads/vip.h"

namespace haac {

namespace serve {
class GarblePool;
class ComponentPool;
}

namespace chain {
struct ChainResult;
struct ChainWorkload;
}

/**
 * Resolve a wire workload spec to a Workload.
 *
 * Accepts the Table 5 prior-work circuits with a size argument
 * ("Million:32", "Adder:64", "Mult:8", "AES128") and every Table 2
 * VIP name ("Hamm", "MatMult", ...; default scale). The size argument
 * is [1-9][0-9]* up to 2^20 (circuit/spec.h).
 *
 * @throws NetError for an unknown or malformed spec (the server acks
 *         it back to the client as a session error).
 */
Workload resolveWorkload(const std::string &spec);

/**
 * An upper bound on the gates resolveWorkload(@p spec) builds, taken
 * from the size argument alone ("Million:32", "Adder:64", "Mult:8"),
 * so a server can refuse an oversized spec before building it. 0 for
 * specs without a size argument (fixed circuits) or an unknown name.
 *
 * @throws NetError for a malformed size argument.
 */
uint64_t workloadGateBound(const std::string &spec);

/**
 * Client half of session establishment, both flavors.
 *
 * Handshakes as @p self; when the peer is a server, sends @p spec and
 * waits for the ack (NetError carries the server's message when it
 * refuses). Returns the peer's role. After this returns, run
 * runRemoteGarbler/runRemoteEvaluator per @p self.
 */
PeerRole clientHello(Transport &transport, PeerRole self,
                     const std::string &spec);

/**
 * Request one more session on an already-established server
 * connection (spec frame + ack, no handshake). After it returns, run
 * runRemoteGarbler/runRemoteEvaluator again with the role from the
 * original clientHello().
 */
void clientRequest(Transport &transport, const std::string &spec);

/**
 * Request a session over a client-supplied circuit instead of a
 * registry spec: ships @p bristol (old Bristol format) as a
 * netlist-upload frame and waits for the admission verdict. A refusal
 * — gate cap exceeded, parse failure, or circuit-analyzer errors —
 * surfaces as NetError carrying the server's diagnostic, before the
 * server spends any garbling work. On success, run the remote
 * protocol with the role from clientHello(); the server plays the
 * opposite role with all-zero inputs (it has no stake in an uploaded
 * circuit's data).
 */
void clientUploadRequest(Transport &transport,
                         const std::string &bristol);

/** Package one party's RemoteResult as the standard RunReport. */
RunReport makeRemoteReport(const RemoteResult &result, Role role,
                           const Transport &transport);

/** makeRemoteReport for a chained session (chain/link.h): backend
 *  "chain-gc" plus the chain section. */
RunReport makeChainReport(const chain::ChainResult &result, Role role,
                          const Transport &transport);

struct ServerOptions
{
    /**
     * Worker threads == maximum concurrent connections. A connection
     * occupies its worker until the client closes it (connections are
     * multi-session), so size this to the expected client fleet.
     * Zero makes the constructor throw std::invalid_argument.
     */
    uint32_t threads = 4;
    /**
     * Serve shard-worker sessions (src/shard) instead of GC sessions:
     * each connection is one shard coordinator link, handled by
     * shard::serveShardWorker. A coordinator running M shards against
     * this server holds M connections through the whole round-trip
     * exchange, so threads must be >= M or the fleet deadlocks.
     */
    bool shardWorker = false;
    /** Garbled tables per streamed segment frame. */
    uint32_t segmentTables = 1024;
    /** Per-session RunReport JSON-Lines sink (null = don't emit). */
    std::ostream *reports = nullptr;
    /** Session-failure log sink (null = silent). */
    std::ostream *errors = nullptr;
    /**
     * Borrowed garble pool (serve/pool.h): garbler sessions replay a
     * ready instance when one is queued, garbling inline on a miss.
     * Must outlive the server; null garbles every session inline.
     */
    serve::GarblePool *pool = nullptr;
    /**
     * Borrowed component pool (serve/component_pool.h) for chained
     * sessions ("Chain..." specs): garbler sessions link pre-garbled
     * components, garbling any missing one inline. Must outlive the
     * server; null garbles every component inline.
     */
    serve::ComponentPool *componentPool = nullptr;
    /** Keep recent specs resolved (two LRU caches of a fixed entry
     *  count, keyed by spec); false = capacity 0, resolve every time. */
    bool cacheWorkloads = true;
    /** Reuse each connection's base-OT + IKNP setup across sessions. */
    bool cacheBaseOt = true;
    /**
     * Admission cap for uploaded netlists: the declared Bristol gate
     * count is checked against this — and the declared wire count
     * against 2*maxGates + 1 — *before* the text is parsed (so a
     * hostile header cannot even make the parser reserve memory), and
     * the canonicalized gate count is re-checked after. The transport
     * frame bound (kMaxFrameBytes) caps the text itself. Sized specs
     * ("Mult:N", ...) meet the same cap through workloadGateBound()
     * before they are built.
     */
    uint32_t maxGates = 1u << 22;
};

class GcServer
{
  public:
    explicit GcServer(ServerOptions opts = {});

    /** Stops accepting, drains queued sessions, joins the workers. */
    ~GcServer();
    GcServer(const GcServer &) = delete;
    GcServer &operator=(const GcServer &) = delete;

    /**
     * Enqueue one established connection for a worker to serve
     * (tests hand in LoopbackTransport endpoints; serveTcp() feeds
     * accepted sockets through here).
     */
    void submit(std::unique_ptr<Transport> transport);

    /**
     * Accept-and-submit loop; returns when the listener is closed
     * (listener.close() from another thread or a signal handler).
     */
    void serveTcp(TcpListener &listener);

    /** Block until every submitted session has finished. */
    void drain();

    struct Totals
    {
        uint64_t sessionsServed = 0;
        uint64_t sessionsFailed = 0;
        uint64_t connectionsServed = 0; ///< connections fully drained
        uint64_t payloadBytes = 0; ///< garbler→evaluator protocol bytes
        uint64_t gates = 0;
        uint64_t poolHits = 0;       ///< sessions served from the pool
        uint64_t poolMisses = 0;     ///< pool on, but garbled inline
        uint64_t otSetupsReused = 0; ///< sessions skipping base OT
        uint64_t chainSessions = 0;  ///< sessions served chained
        uint64_t componentsLinked = 0; ///< components across them
        uint64_t componentPoolHits = 0; ///< linked pre-garbled
        uint64_t linkBytes = 0; ///< link-table stream bytes served
        uint64_t uploadSessions = 0; ///< uploaded netlists served
        /** Uploads the admission gate refused (cap or analyzer). */
        uint64_t uploadsRefused = 0;
        double sessionSeconds = 0; ///< summed per-session wall time
    };
    Totals totals() const;

  private:
    void workerLoop();
    void serveOne(Transport &transport, uint64_t session_id);
    /** An admitted request: what to run and what to ack. */
    struct Admitted
    {
        std::shared_ptr<const Workload> workload; ///< monolithic
        std::shared_ptr<const chain::ChainWorkload> chain; ///< or chained
        std::string spec; ///< the request; empty for an upload
        std::string ack;
    };
    /** Resolve or refuse one request frame (NetError refuses). */
    Admitted admit(const std::vector<uint8_t> &request);
    /** Admit, ack, run and report one session. */
    void serveSession(Transport &transport, uint64_t session_id,
                      PeerRole client, const std::vector<uint8_t> &request,
                      OtConnectionCache &ot_cache);
    /**
     * The last step of every session, GC or shard worker: serialize
     * @p report, count the session, let @p count add its own totals,
     * and write the report line.
     */
    template <typename Count>
    void finishSession(const RunReport &report, Count count);

    ServerOptions opts_;
    std::mutex reportMutex_; ///< guards only the reports sink
    serve::LruCache<std::string, Workload> workloads_;
    serve::LruCache<std::string, chain::ChainWorkload> chains_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;  ///< workers: queue non-empty / stop
    std::condition_variable idle_;  ///< drain(): queue empty, none active
    std::deque<std::unique_ptr<Transport>> queue_;
    std::vector<std::thread> workers_;
    uint32_t active_ = 0;
    uint64_t nextSessionId_ = 0;
    bool stop_ = false;
    Totals totals_;
};

} // namespace haac

#endif // HAAC_NET_SERVER_H
