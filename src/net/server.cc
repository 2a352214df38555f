#include "net/server.h"

#include <optional>
#include <stdexcept>

#include "chain/link.h"
#include "chain/workloads.h"
#include "circuit/bristol.h"
#include "circuit/spec.h"
#include "crypto/prg.h"
#include "net/wire.h"
#include "serve/component_pool.h"
#include "serve/pool.h"
#include "shard/worker.h"
#include "workloads/priorwork.h"

namespace haac {

namespace {

/** The largest N a sized registry spec ("Mult:N") may carry. */
constexpr uint32_t kMaxSizeArg = 1u << 20;

/**
 * Registry specs and chain plans each server keeps resolved; the least
 * recently requested one past this is dropped and re-resolved on its
 * next request.
 */
constexpr size_t kCachedSpecs = 64;

/** Session ack: one status byte (1 = accepted), then the message. */
void
sendAck(Transport &transport, bool ok, const std::string &message)
{
    std::vector<uint8_t> frame;
    frame.reserve(1 + message.size());
    frame.push_back(ok ? 1 : 0);
    frame.insert(frame.end(), message.begin(), message.end());
    transport.sendFrame(frame);
}

/** Client half of a request: send @p frame, then read the ack. */
void
requestSession(Transport &transport, const std::vector<uint8_t> &frame,
               const char *what)
{
    transport.sendFrame(frame);
    const std::vector<uint8_t> ack = transport.recvFrame();
    if (ack.empty())
        throw NetError("server sent an empty session ack");
    if (ack[0] == 0)
        throw NetError(std::string("server refused ") + what + ": " +
                       std::string(ack.begin() + 1, ack.end()));
}

/**
 * A "Name:N" circuit family: its builder and an upper bound on the
 * gates that builder emits for N. Million and Adder are one N-bit
 * ripple chain (5N - 2 gates); Mult adds N shifted rows into a 2N-bit
 * accumulator (just under 6N^2).
 */
struct SizedFamily
{
    const char *name;
    Workload (*make)(uint32_t);
    uint64_t (*gateBound)(uint64_t);
};

const SizedFamily kSizedFamilies[] = {
    {"Million", makeMillionaire, [](uint64_t n) { return 5 * n; }},
    {"millionaire", makeMillionaire, [](uint64_t n) { return 5 * n; }},
    {"Adder", makeAdder, [](uint64_t n) { return 5 * n; }},
    {"Mult", makeMultiplier, [](uint64_t n) { return 6 * n * n; }},
};

/**
 * The sized family @p spec names, its size in @p n; null for a spec
 * without a colon (a fixed circuit) or an unknown name.
 */
const SizedFamily *
sizedFamily(const std::string &spec, uint32_t &n)
{
    const std::optional<SizedSpec> s = splitSizedSpec(spec, kMaxSizeArg);
    if (!s)
        return nullptr;
    if (s->size == 0)
        throw NetError("workload spec \"" + spec +
                       "\": bad size argument");
    n = s->size;
    for (const SizedFamily &f : kSizedFamilies)
        if (s->name == f.name)
            return &f;
    return nullptr;
}

/**
 * The upload admission gate: header caps, parse, analyzer verdict and
 * canonical-size re-check, all before a single label is derived.
 */
Netlist
admitUpload(const std::vector<uint8_t> &frame, uint32_t max_gates)
{
    // The reader sizes its gate storage and its wire map off the
    // header's counts, so they are capped before it sees the text.
    const std::string_view text = parseNetlistUploadFrame(frame);
    const std::optional<BristolHeader> head = readBristolHeader(text);
    if (!head)
        throw NetError("uploaded netlist: missing Bristol header");
    if (head->gates > max_gates)
        throw NetError("uploaded netlist declares " +
                       std::to_string(head->gates) +
                       " gates; this server admits at most " +
                       std::to_string(max_gates));
    // Every wire of an admissible circuit is a primary input or one
    // gate's output, and the parser refuses headers where that fails,
    // so 2*maxGates (+1 output slack, e.g. an XOR-parity tree) bounds
    // the wire count of everything worth parsing — and, with it, the
    // parser's wire-map allocation.
    const uint64_t max_wires = 2 * uint64_t(max_gates) + 1;
    if (head->wires > max_wires)
        throw NetError("uploaded netlist declares " +
                       std::to_string(head->wires) +
                       " wires; this server admits at most " +
                       std::to_string(max_wires));
    // The refusal text needs the warning count, not the warnings.
    CircuitLintOptions count_warnings;
    count_warnings.warningText = false;
    CircuitLintReport lints;
    Netlist nl = readBristol(text, &lints, count_warnings);
    if (!lints.clean())
        throw NetError("uploaded netlist refused by the circuit analyzer (" +
                       lints.summary() + "): " + lints.firstError());
    if (nl.numGates() > max_gates)
        throw NetError("uploaded netlist canonicalizes to " +
                       std::to_string(nl.numGates()) +
                       " gates; this server admits at most " +
                       std::to_string(max_gates));
    return nl;
}

} // namespace

uint64_t
workloadGateBound(const std::string &spec)
{
    uint32_t n = 0;
    const SizedFamily *f = sizedFamily(spec, n);
    return f != nullptr ? f->gateBound(n) : 0;
}

Workload
resolveWorkload(const std::string &spec)
{
    uint32_t n = 0;
    if (const SizedFamily *f = sizedFamily(spec, n))
        return f->make(n);
    if (spec == "AES128" || spec == "aes128")
        return makeAes128();
    try {
        return vipWorkload(spec, false);
    } catch (const std::invalid_argument &) {
        throw NetError("unknown workload spec \"" + spec + "\"");
    }
}

PeerRole
clientHello(Transport &transport, PeerRole self, const std::string &spec)
{
    const PeerRole peer = transport.handshake(self);
    if (peer != PeerRole::Server)
        return peer; // peer flavor: straight into the protocol

    clientRequest(transport, spec);
    return peer;
}

void
clientRequest(Transport &transport, const std::string &spec)
{
    requestSession(transport, {spec.begin(), spec.end()}, "session");
}

void
clientUploadRequest(Transport &transport, const std::string &bristol)
{
    requestSession(transport, makeNetlistUploadFrame(bristol), "upload");
}

RunReport
makeRemoteReport(const RemoteResult &result, Role role,
                 const Transport &transport)
{
    RunReport report;
    report.backend = "remote-gc";
    report.outputs = result.outputs;
    report.hasOutputs = true;
    report.comm.tableBytes = result.tableBytes;
    report.comm.inputLabelBytes = result.inputLabelBytes;
    report.comm.otBytes = result.otBytes;
    report.comm.otUplinkBytes = result.otUplinkBytes;
    report.comm.outputDecodeBytes = result.outputDecodeBytes;
    report.comm.totalBytes = result.totalBytes;
    report.hasComm = true;
    report.net.role = role;
    report.net.endpoint = transport.describe();
    report.net.rawBytesSent = transport.rawBytesSent();
    report.net.rawBytesReceived = transport.rawBytesReceived();
    report.net.controlBytes = result.controlBytes;
    report.net.tableSegments = result.tableSegments;
    report.net.segmentTables = result.segmentTables;
    report.net.gates = result.gates;
    report.hasNet = true;
    report.hostSeconds = result.seconds;
    report.gates = result.gates;
    if (result.otSetupReused || result.pooledGarbling) {
        report.serve.otSetupReused = result.otSetupReused;
        report.serve.pooledGarbling = result.pooledGarbling;
        report.hasServe = true;
    }
    return report;
}

RunReport
makeChainReport(const chain::ChainResult &result, Role role,
                const Transport &transport)
{
    RunReport report = makeRemoteReport(result, role, transport);
    report.backend = "chain-gc";
    report.chain.components = result.components;
    report.chain.links = result.links;
    report.chain.linkBytes = result.linkBytes;
    report.chain.linkFrames = result.linkFrames;
    report.chain.pooledComponents = result.pooledComponents;
    report.hasChain = true;
    return report;
}

GcServer::GcServer(ServerOptions opts)
    : opts_(opts), workloads_(opts.cacheWorkloads ? kCachedSpecs : 0),
      chains_(opts.cacheWorkloads ? kCachedSpecs : 0)
{
    // With no worker, the server would accept connections nobody serves.
    if (opts_.threads == 0)
        throw std::invalid_argument("GcServer: threads must be at least 1");
    workers_.reserve(opts_.threads);
    for (uint32_t i = 0; i < opts_.threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

GcServer::~GcServer()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
GcServer::submit(std::unique_ptr<Transport> transport)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_)
            throw std::logic_error("GcServer::submit after shutdown");
        queue_.push_back(std::move(transport));
    }
    wake_.notify_one();
}

void
GcServer::serveTcp(TcpListener &listener)
{
    for (;;) {
        std::unique_ptr<Transport> conn;
        try {
            conn = listener.accept();
        } catch (const NetError &) {
            return; // listener closed: wind down
        }
        submit(std::move(conn));
    }
}

void
GcServer::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

GcServer::Totals
GcServer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
}

void
GcServer::workerLoop()
{
    for (;;) {
        std::unique_ptr<Transport> transport;
        uint64_t session_id = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            transport = std::move(queue_.front());
            queue_.pop_front();
            session_id = nextSessionId_++;
            ++active_;
        }

        try {
            serveOne(*transport, session_id);
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.sessionsFailed;
            if (opts_.errors)
                *opts_.errors << "session " << session_id
                              << " failed: " << e.what() << "\n";
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
        }
        idle_.notify_all();
    }
}

template <typename Count>
void
GcServer::finishSession(const RunReport &report, Count count)
{
    // Serialize outside any lock; the sink has its own mutex so slow
    // report I/O never stalls the queue/totals lock the pool runs on.
    const std::string json = opts_.reports ? report.toJson() : "";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++totals_.sessionsServed;
        count(totals_);
    }
    if (opts_.reports) {
        std::lock_guard<std::mutex> lock(reportMutex_);
        *opts_.reports << json << "\n" << std::flush;
    }
}

void
GcServer::serveOne(Transport &transport, uint64_t session_id)
{
    if (opts_.shardWorker) {
        const shard::WorkerSummary summary =
            shard::serveShardWorker(transport);

        RunReport report;
        report.backend = "shard-worker";
        report.label = "shard-session-" + std::to_string(session_id);
        report.net.endpoint = transport.describe();
        report.net.rawBytesSent = transport.rawBytesSent();
        report.net.rawBytesReceived = transport.rawBytesReceived();
        report.hasNet = true;
        if (summary.rounds > 0) {
            report.sim = summary.lastStats;
            report.hasSim = true;
        }
        finishSession(report, [&](Totals &t) {
            t.gates += summary.instructions;
        });
        return;
    }

    const PeerRole client = transport.handshake(PeerRole::Server);
    if (client == PeerRole::Server)
        throw NetError("peer is also a server; no party would garble");

    // One connection, many sessions: each iteration serves one
    // workload-spec frame; the peer closing between sessions ends the
    // connection cleanly. The base-OT cache lives exactly as long as
    // the connection (see OtConnectionCache's doc for why).
    OtConnectionCache ot_cache;
    uint64_t sid = session_id;
    for (uint64_t served = 0;; ++served) {
        std::vector<uint8_t> request;
        try {
            request = transport.recvFrame();
        } catch (const NetError &) {
            if (served == 0)
                throw; // closed before the first session: a failure
            break;     // drained: the client is done with us
        }
        if (served > 0) {
            std::lock_guard<std::mutex> lock(mutex_);
            sid = nextSessionId_++;
        }
        serveSession(transport, sid, client, request, ot_cache);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.connectionsServed;
}

GcServer::Admitted
GcServer::admit(const std::vector<uint8_t> &request)
{
    Admitted in;
    if (isNetlistUploadFrame(request)) {
        Netlist nl;
        try {
            nl = admitUpload(request, opts_.maxGates);
        } catch (const std::exception &) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++totals_.uploadsRefused;
            throw;
        }
        // The server has no stake in a circuit it has never seen: its
        // own inputs are all zero, and an upload (assumed unique) is
        // neither cached nor pooled.
        in.ack = "netlist:" + std::to_string(nl.numGates());
        auto wl = std::make_shared<Workload>();
        wl->name = "uploaded-netlist";
        wl->garblerBits.assign(nl.numGarblerInputs, false);
        wl->evaluatorBits.assign(nl.numEvaluatorInputs, false);
        wl->netlist = std::move(nl);
        in.workload = std::move(wl);
        return in;
    }

    in.spec.assign(request.begin(), request.end());
    if (chain::isChainSpec(in.spec)) {
        in.chain = chains_.getOrMake(in.spec, [&] {
            try {
                return std::make_shared<const chain::ChainWorkload>(
                    chain::resolveChainWorkload(in.spec));
            } catch (const std::invalid_argument &e) {
                throw NetError("unknown chain workload spec \"" +
                               in.spec + "\": " + e.what());
            }
        });
        in.ack = in.chain->name;
        return in;
    }
    if (in.spec.empty())
        throw NetError("this server requires a workload spec "
                       "(e.g. \"Million:32\")");
    in.workload = workloads_.getOrMake(in.spec, [&] {
        // A size argument up to 2^20 reaches ~6.6e12 gates for Mult,
        // so sized specs meet the upload's gate cap before anything is
        // built. A cached spec has passed it already.
        const uint64_t bound = workloadGateBound(in.spec);
        if (bound > opts_.maxGates)
            throw NetError("workload spec \"" + in.spec +
                           "\" builds up to " + std::to_string(bound) +
                           " gates; this server admits at most " +
                           std::to_string(opts_.maxGates));
        return std::make_shared<const Workload>(resolveWorkload(in.spec));
    });
    in.ack = in.workload->name;
    return in;
}

void
GcServer::serveSession(Transport &transport, uint64_t session_id,
                       PeerRole client, const std::vector<uint8_t> &request,
                       OtConnectionCache &ot_cache)
{
    // A refusal kills the session (and the connection) with the reason
    // acked back.
    Admitted in;
    try {
        in = admit(request);
    } catch (const std::exception &e) {
        sendAck(transport, false, e.what());
        throw NetError(e.what());
    }
    sendAck(transport, true, in.ack);

    RemoteOptions ropts;
    ropts.segmentTables = opts_.segmentTables;
    if (opts_.cacheBaseOt)
        ropts.otCache = &ot_cache;
    // The server plays whichever GC role the client did not claim.
    const bool garbler = client != PeerRole::Garbler;
    const Role role = garbler ? Role::Garbler : Role::Evaluator;

    chain::ChainResult result; // a monolithic session fills its base
    std::optional<serve::PoolStats> pool_stats;
    RunReport report;
    bool pool_eligible = false;
    std::unique_ptr<GarbledInstance> pooled;
    if (in.chain != nullptr) {
        const chain::ChainWorkload &wl = *in.chain;
        // A pool serves pre-garbled components (misses garble inline
        // inside the provider); without one, every component garbles
        // fresh from OS entropy. The chaining security contract (one
        // garbling, one session) holds either way.
        serve::ComponentPool *pool = opts_.componentPool;
        if (garbler && pool != nullptr)
            pool->trackPlan(wl.plan);
        result = garbler ? chain::runChainGarbler(
                               wl.plan, wl.garblerBits, transport,
                               pool != nullptr
                                   ? pool->provider()
                                   : chain::freshComponentProvider(0),
                               ropts)
                         : chain::runChainEvaluator(
                               wl.plan, wl.evaluatorBits, transport, ropts);
        report = makeChainReport(result, role, transport);
        report.workload = wl.name;
        if (pool != nullptr)
            pool_stats = pool->stats();
    } else {
        const Workload &wl = *in.workload;
        // Garbler sessions over a registry spec prefer a pooled
        // instance; a miss (or no pool) garbles inline from a fresh
        // OS-entropy seed. Pop before tracking, so a spec's first
        // session is always a miss rather than a race with the filler
        // that track() wakes.
        pool_eligible = opts_.pool != nullptr && garbler && !in.spec.empty();
        if (pool_eligible) {
            pooled = opts_.pool->tryPop(in.spec);
            opts_.pool->track(in.spec, wl.netlist);
        }
        RemoteResult &mono = result;
        if (!garbler)
            mono = runRemoteEvaluator(wl.netlist, wl.evaluatorBits,
                                      transport, ropts);
        else if (pooled != nullptr)
            mono = runRemoteGarbler(wl.netlist, wl.garblerBits, transport,
                                    *pooled, ropts);
        else
            mono = runRemoteGarbler(wl.netlist, wl.garblerBits, transport,
                                    randomSeed(), ropts);
        report = makeRemoteReport(result, role, transport);
        report.workload = wl.name;
        if (opts_.pool != nullptr || opts_.cacheBaseOt)
            pool_stats = opts_.pool != nullptr ? opts_.pool->stats()
                                               : serve::PoolStats{};
    }
    if (pool_stats) {
        report.serve.poolHits = pool_stats->hits;
        report.serve.poolMisses = pool_stats->misses;
        report.hasServe = true;
    }
    report.label = "session-" + std::to_string(session_id);
    finishSession(report, [&](Totals &t) {
        t.payloadBytes += result.totalBytes;
        t.gates += result.gates;
        t.sessionSeconds += result.seconds;
        t.otSetupsReused += result.otSetupReused;
        if (pool_eligible)
            ++(pooled != nullptr ? t.poolHits : t.poolMisses);
        if (in.chain != nullptr)
            ++t.chainSessions;
        else if (in.spec.empty())
            ++t.uploadSessions;
        t.componentsLinked += result.components;
        t.componentPoolHits += result.pooledComponents;
        t.linkBytes += result.linkBytes;
    });
}

} // namespace haac
