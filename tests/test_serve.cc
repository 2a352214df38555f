/**
 * @file
 * The src/serve/ subsystem: LruCache mechanics, CompileCache
 * bit-identity on every VIP workload, GarblePool freshness (the PR 5
 * label-reuse attack shape must not reappear via pooled instances),
 * instance-replay wire parity, and the GcServer integration — pooled
 * multi-session connections with base-OT reuse.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "gc/instance.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "net/server.h"
#include "serve/cache.h"
#include "serve/compile_cache.h"
#include "serve/pool.h"
#include "workloads/vip.h"

using namespace haac;
using namespace haac::serve;

namespace {

/** Run @p fn on a thread; rethrow anything it threw on join. */
class PeerThread
{
  public:
    template <typename Fn>
    explicit PeerThread(Fn fn)
        : thread_([this, fn = std::move(fn)]() mutable {
              try {
                  fn();
              } catch (...) {
                  error_ = std::current_exception();
              }
          })
    {
    }

    void
    join()
    {
        thread_.join();
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    std::exception_ptr error_;
    std::thread thread_;
};

std::shared_ptr<const int>
boxed(int v)
{
    return std::make_shared<const int>(v);
}

} // namespace

TEST(LruCache, GetPutEvictsLeastRecentlyUsed)
{
    LruCache<std::string, int> cache(2);
    EXPECT_EQ(cache.capacity(), 2u);
    EXPECT_EQ(cache.get("a"), nullptr);

    cache.put("a", boxed(1));
    cache.put("b", boxed(2));
    EXPECT_EQ(*cache.get("a"), 1); // promotes a to MRU
    cache.put("c", boxed(3));      // evicts b, the LRU entry

    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_EQ(*cache.get("a"), 1);
    EXPECT_EQ(*cache.get("c"), 3);
    EXPECT_EQ(cache.size(), 2u);

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.insertions, 3u);
    EXPECT_EQ(s.evictions, 1u);
}

TEST(LruCache, ReplaceInPlaceAndZeroCapacity)
{
    LruCache<std::string, int> cache(2);
    cache.put("a", boxed(1));
    cache.put("a", boxed(7)); // replace, not a second entry
    EXPECT_EQ(*cache.get("a"), 7);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    LruCache<std::string, int> off(0); // capacity 0 disables caching
    off.put("a", boxed(1));
    EXPECT_EQ(off.get("a"), nullptr);
    EXPECT_EQ(off.size(), 0u);
}

TEST(CompileKey, SensitiveToEveryScheduleAffectingInput)
{
    const Workload wl = vipWorkload("Hamm", false);
    CompileOptions opts;
    HaacConfig cfg;
    opts.swwWires = cfg.swwWires();
    const CompileKey base = CompileKey::of(wl.netlist, opts, cfg);
    EXPECT_TRUE(base == CompileKey::of(wl.netlist, opts, cfg));

    // Different circuit, different key (also differing shape echo).
    const Workload other = vipWorkload("DotProd", false);
    EXPECT_FALSE(base ==
                 CompileKey::of(other.netlist, opts, cfg));

    // Every CompileOptions knob except `verify` must perturb the key.
    CompileOptions o2 = opts;
    o2.reorder = ReorderKind::Segment;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, o2, cfg));
    o2 = opts;
    o2.esw = !o2.esw;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, o2, cfg));
    o2 = opts;
    o2.segmentSize = 512;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, o2, cfg));

    // `verify` only re-checks the schedule; compiled output is
    // identical, so it must NOT change the key.
    o2 = opts;
    o2.verify = !o2.verify;
    EXPECT_TRUE(base == CompileKey::of(wl.netlist, o2, cfg));

    // Schedule-affecting config fields perturb the key too.
    HaacConfig c2 = cfg;
    c2.numGes *= 2;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, opts, c2));
    c2 = cfg;
    c2.dramBandwidthScale *= 2.0;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, opts, c2));
    c2 = cfg;
    c2.fetchDecodeStages += 1;
    EXPECT_FALSE(base == CompileKey::of(wl.netlist, opts, c2));
}

TEST(CompileCache, HitIsBitIdenticalOnEveryVipWorkload)
{
    CompileCache cache(16);
    HaacConfig cfg;
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();

    for (const std::string &name : vipNames()) {
        const Workload wl = vipWorkload(name, false);

        // Reference: the raw pipeline, no cache involved.
        CompileStats ref_stats;
        const HaacProgram ref_prog = compileProgram(
            assemble(wl.netlist), opts, &ref_stats);
        const StreamSet ref_streams = buildStreams(ref_prog, cfg);

        bool hit = true;
        const auto cold = cache.compile(wl.netlist, opts, cfg, &hit);
        EXPECT_FALSE(hit) << name;
        hit = false;
        const auto warm = cache.compile(wl.netlist, opts, cfg, &hit);
        EXPECT_TRUE(hit) << name;
        EXPECT_EQ(cold.get(), warm.get()) << name; // same cached unit

        // Bit-identical to the cold pipeline, program and schedule.
        EXPECT_TRUE(warm->program == ref_prog) << name;
        EXPECT_EQ(warm->stats.instructions, ref_stats.instructions);
        EXPECT_EQ(warm->stats.liveWires, ref_stats.liveWires);
        EXPECT_EQ(warm->stats.oorReads, ref_stats.oorReads);
        ASSERT_EQ(warm->streams.ge.size(), ref_streams.ge.size());
        for (size_t g = 0; g < ref_streams.ge.size(); ++g) {
            EXPECT_EQ(warm->streams.ge[g].instrIdx,
                      ref_streams.ge[g].instrIdx);
            EXPECT_EQ(warm->streams.ge[g].oorAddrs,
                      ref_streams.ge[g].oorAddrs);
            EXPECT_EQ(warm->streams.ge[g].tableCount,
                      ref_streams.ge[g].tableCount);
        }
        EXPECT_EQ(warm->streams.geOf, ref_streams.geOf);
        EXPECT_EQ(warm->streams.issueOrder, ref_streams.issueOrder);
        EXPECT_EQ(warm->streams.totalOor, ref_streams.totalOor);
    }

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.misses, vipNames().size());
    EXPECT_EQ(s.hits, vipNames().size());
}

TEST(CompileCache, ConcurrentSessionsShareTheCache)
{
    CompileCache cache(8);
    const std::vector<std::string> names = {"Hamm", "DotProd",
                                            "BubbSt", "ReLU"};
    std::atomic<uint32_t> ok{0};
    std::vector<std::unique_ptr<PeerThread>> threads;
    for (int t = 0; t < 8; ++t) {
        threads.push_back(std::make_unique<PeerThread>([&, t] {
            const Workload wl =
                vipWorkload(names[size_t(t) % names.size()], false);
            CompileOptions opts;
            HaacConfig cfg;
            opts.swwWires = cfg.swwWires();
            const auto unit = cache.compile(wl.netlist, opts, cfg);
            if (unit && !unit->program.instrs.empty())
                ++ok;
        }));
    }
    for (auto &t : threads)
        t->join();
    EXPECT_EQ(ok.load(), 8u);
    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, 8u);
    EXPECT_GE(s.misses, 4u); // at least one compile per distinct name
}

TEST(CompileCache, SessionHaacSimReportsCacheHits)
{
    const Workload wl = vipWorkload("Hamm", false);
    Session session(wl);
    const RunReport plain = session.runHaacSim();
    EXPECT_FALSE(plain.hasServe);

    CompileCache cache(4);
    session.withCompileCache(&cache);
    const RunReport cold = session.runHaacSim();
    const RunReport warm = session.runHaacSim();

    EXPECT_TRUE(cold.hasServe);
    EXPECT_FALSE(cold.serve.compileCacheHit);
    EXPECT_TRUE(warm.hasServe);
    EXPECT_TRUE(warm.serve.compileCacheHit);
    EXPECT_EQ(warm.serve.compileCacheHits, 1u);
    EXPECT_EQ(warm.serve.compileCacheMisses, 1u);

    // The cached compile simulates identically to the fresh one.
    EXPECT_EQ(warm.sim.cycles, plain.sim.cycles);
    EXPECT_EQ(warm.compile.instructions, plain.compile.instructions);
    EXPECT_EQ(warm.outputs, plain.outputs);
    EXPECT_EQ(warm.gates, plain.gates);

    // Session::compile() consults the same cache.
    const Session::Compiled compiled = session.compile();
    EXPECT_EQ(compiled.stats.instructions, plain.compile.instructions);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(GarbledInstance, CaptureMatchesStreamingGarbler)
{
    const Workload wl = vipWorkload("Hamm", false);
    const uint64_t seed = 0xfeedbeef;
    const GarbledInstance inst = captureGarbling(wl.netlist, seed);

    StreamingGarbler ref(wl.netlist, seed);
    std::vector<GarbledTable> ref_tables;
    ref.run([&](const GarbledTable &t) { ref_tables.push_back(t); });

    EXPECT_EQ(inst.globalOffset, ref.globalOffset());
    ASSERT_EQ(inst.inputZero.size(), wl.netlist.numInputs());
    for (WireId w = 0; w < wl.netlist.numInputs(); ++w) {
        EXPECT_EQ(inst.inputZero[w], ref.inputZeroLabel(w));
        EXPECT_EQ(inst.activeLabel(w, true), ref.activeLabel(w, true));
    }
    EXPECT_EQ(inst.tables, ref_tables);
    ASSERT_EQ(inst.outputZero.size(), wl.netlist.outputs.size());
    for (size_t i = 0; i < inst.outputZero.size(); ++i)
        EXPECT_EQ(inst.decodeBit(i), ref.decodeBit(i));
    EXPECT_EQ(inst.byteSize(),
              (inst.inputZero.size() + inst.outputZero.size() + 1) *
                      kLabelBytes +
                  inst.tables.size() * kTableBytes);
}

TEST(GarbledInstance, ReplayIsWireIdenticalToInlineGarbling)
{
    const Workload wl = vipWorkload("Hamm", false);
    const uint64_t seed = 0x5eed;

    auto runGarblerSide = [&](bool pooled) {
        auto [gend, eend] = LoopbackTransport::createPair();
        RemoteResult gres, eres;
        PeerThread garbler([&, t = std::move(gend)] {
            t->handshake(PeerRole::Garbler);
            if (pooled) {
                const GarbledInstance inst =
                    captureGarbling(wl.netlist, seed);
                gres = runRemoteGarbler(wl.netlist, wl.garblerBits, *t,
                                        inst);
            } else {
                gres = runRemoteGarbler(wl.netlist, wl.garblerBits, *t,
                                        seed);
            }
        });
        eend->handshake(PeerRole::Evaluator);
        eres = runRemoteEvaluator(wl.netlist, wl.evaluatorBits, *eend);
        garbler.join();
        return std::make_pair(gres, eres);
    };

    const auto [live_g, live_e] = runGarblerSide(false);
    const auto [pool_g, pool_e] = runGarblerSide(true);

    const std::vector<bool> expected =
        wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    EXPECT_EQ(live_e.outputs, expected);
    EXPECT_EQ(pool_e.outputs, expected);
    EXPECT_EQ(pool_g.outputs, expected);

    // Byte accounting identical in every category: replay changes
    // where tables come from, not what crosses the wire.
    EXPECT_EQ(pool_g.tableBytes, live_g.tableBytes);
    EXPECT_EQ(pool_g.inputLabelBytes, live_g.inputLabelBytes);
    EXPECT_EQ(pool_g.otBytes, live_g.otBytes);
    EXPECT_EQ(pool_g.otUplinkBytes, live_g.otUplinkBytes);
    EXPECT_EQ(pool_g.outputDecodeBytes, live_g.outputDecodeBytes);
    EXPECT_EQ(pool_g.totalBytes, live_g.totalBytes);
    EXPECT_FALSE(live_g.pooledGarbling);
    EXPECT_TRUE(pool_g.pooledGarbling);
}

TEST(GarbledInstance, ReplayRejectsMismatchedNetlist)
{
    const Workload hamm = vipWorkload("Hamm", false);
    const Workload dot = vipWorkload("DotProd", false);
    const GarbledInstance inst = captureGarbling(dot.netlist, 1);
    auto [gend, eend] = LoopbackTransport::createPair();
    EXPECT_THROW(runRemoteGarbler(hamm.netlist, hamm.garblerBits,
                                  *gend, inst),
                 std::invalid_argument);
}

TEST(GarblePool, InstancesAreFreshNeverLabelReuse)
{
    // The PR 5 seed-leak lesson, replayed against the pool: two
    // sessions served from the same pool must never share wire
    // labels — shared labels across sessions are exactly the leak a
    // replayed instance would create. Pop two instances for one spec
    // and require disjoint randomness everywhere.
    PoolOptions popts;
    popts.depth = 2;
    GarblePool pool(popts);
    const Workload wl = vipWorkload("Hamm", false);
    pool.track("Hamm", wl.netlist);
    pool.prewarm();

    const auto a = pool.tryPop("Hamm");
    const auto b = pool.tryPop("Hamm");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);

    EXPECT_FALSE(a->globalOffset == b->globalOffset);
    ASSERT_EQ(a->inputZero.size(), b->inputZero.size());
    for (WireId w = 0; w < wl.netlist.numInputs(); ++w)
        EXPECT_FALSE(a->inputZero[w] == b->inputZero[w]);
    ASSERT_EQ(a->tables.size(), b->tables.size());
    ASSERT_GT(a->tables.size(), 0u);
    EXPECT_FALSE(a->tables.front() == b->tables.front());

    // Cross-instance mixing must not decode: evaluating with A's
    // input labels against B's tables yields garbage, not outputs.
    std::vector<Label> inputs(wl.netlist.numInputs());
    for (WireId w = 0; w < wl.netlist.numInputs(); ++w) {
        bool bit;
        if (w == wl.netlist.constOne)
            bit = true;
        else if (w < wl.netlist.numGarblerInputs)
            bit = wl.garblerBits[w];
        else
            bit = wl.evaluatorBits[w - wl.netlist.numGarblerInputs];
        inputs[w] = a->activeLabel(w, bit);
    }
    size_t next = 0;
    const std::vector<Label> out_labels = evaluateStreaming(
        wl.netlist, inputs, [&] { return b->tables[next++]; });
    std::vector<bool> mixed(out_labels.size());
    for (size_t i = 0; i < out_labels.size(); ++i)
        mixed[i] = out_labels[i].lsb() != b->decodeBit(i);
    EXPECT_NE(mixed,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
}

TEST(GarblePool, TrackPrewarmAndMissAccounting)
{
    PoolOptions popts;
    popts.depth = 3;
    popts.threads = 2;
    GarblePool pool(popts);

    // Untracked spec: a miss, never a crash.
    EXPECT_EQ(pool.tryPop("NoSuch"), nullptr);
    EXPECT_EQ(pool.stats().misses, 1u);

    const Workload wl = vipWorkload("DotProd", false);
    pool.track("DotProd", wl.netlist);
    pool.track("DotProd", wl.netlist); // idempotent
    pool.prewarm();

    PoolStats s = pool.stats();
    EXPECT_EQ(s.tracked, 1u);
    EXPECT_EQ(s.ready, popts.depth);
    EXPECT_GE(s.produced, popts.depth);

    EXPECT_NE(pool.tryPop("DotProd"), nullptr);
    EXPECT_NE(pool.tryPop("DotProd"), nullptr);
    s = pool.stats();
    EXPECT_EQ(s.hits, 2u);
}

TEST(GarblePool, LowWaterRefillHysteresis)
{
    // lowWater 2, depth 4: one pop leaves the queue at 3 — above the
    // trigger — so the fillers must stay quiet; draining to 0 trips
    // the trigger and refills all the way back to depth.
    PoolOptions popts;
    popts.depth = 4;
    popts.lowWater = 2;
    GarblePool pool(popts);
    const Workload wl = vipWorkload("Hamm", false);
    pool.track("Hamm", wl.netlist);
    pool.prewarm();
    EXPECT_EQ(pool.stats().produced, 4u);

    EXPECT_NE(pool.tryPop("Hamm"), nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    PoolStats s = pool.stats();
    EXPECT_EQ(s.produced, 4u); // no refill above the low-water mark
    EXPECT_EQ(s.ready, 3u);

    for (int i = 0; i < 3; ++i)
        EXPECT_NE(pool.tryPop("Hamm"), nullptr);
    pool.prewarm(); // trigger tripped: fills back to depth
    s = pool.stats();
    EXPECT_EQ(s.produced, 8u);
    EXPECT_EQ(s.ready, 4u);
}

TEST(GcServer, PooledMultiSessionConnectionWithOtReuse)
{
    // One connection, three sessions: the server garbles from the
    // pool, the base-OT setup runs once, and the serve section lands
    // in every report.
    PoolOptions popts;
    popts.depth = 4;
    GarblePool pool(popts);
    const Workload wl = resolveWorkload("Hamm");
    pool.track("Hamm", wl.netlist);
    pool.prewarm();

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 1;
    opts.reports = &reports;
    opts.pool = &pool;
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    const std::vector<bool> expected =
        wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    OtConnectionCache client_ot;
    RemoteOptions ropts;
    ropts.otCache = &client_ot;

    clientHello(*client_end, PeerRole::Evaluator, "Hamm");
    for (int s = 0; s < 3; ++s) {
        if (s > 0)
            clientRequest(*client_end, "Hamm");
        const RemoteResult res = runRemoteEvaluator(
            wl.netlist, wl.evaluatorBits, *client_end, ropts);
        EXPECT_EQ(res.outputs, expected) << "session " << s;
        EXPECT_EQ(res.otSetupReused, s > 0) << "session " << s;
        EXPECT_TRUE(res.pooledGarbling == false); // evaluator side
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 3u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.connectionsServed, 1u);
    EXPECT_EQ(totals.poolHits, 3u);
    EXPECT_EQ(totals.poolMisses, 0u);
    EXPECT_EQ(totals.otSetupsReused, 2u);

    const std::string lines = reports.str();
    EXPECT_NE(lines.find("\"pooled_garbling\":true"),
              std::string::npos);
    EXPECT_NE(lines.find("\"ot_setup_reused\":true"),
              std::string::npos);
    EXPECT_NE(lines.find("\"serve\""), std::string::npos);
}

TEST(GcServer, PoolMissFallsBackToInlineGarbling)
{
    // An empty pool (nothing prewarmed, depth small) must never block
    // a session: the server garbles inline and still answers.
    PoolOptions popts;
    popts.depth = 1;
    GarblePool pool(popts); // "Hamm" is only tracked on demand, and
                            // serveSession pops before it tracks

    ServerOptions opts;
    opts.threads = 1;
    opts.pool = &pool;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Hamm");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    OtConnectionCache client_ot;
    RemoteOptions ropts;
    ropts.otCache = &client_ot;
    clientHello(*client_end, PeerRole::Evaluator, "Hamm");
    const RemoteResult res = runRemoteEvaluator(
        wl.netlist, wl.evaluatorBits, *client_end, ropts);
    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    // First-ever session for the spec: the pool had nothing ready.
    EXPECT_EQ(totals.poolMisses, 1u);
}
