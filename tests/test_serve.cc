/**
 * @file
 * The src/serve/ subsystem: LruCache mechanics, GarblePool freshness
 * (the label-reuse attack shape must not reappear via pooled instances),
 * instance-replay wire parity, and the GcServer integration — pooled
 * multi-session connections with base-OT reuse.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "chain/component.h"
#include "chain/link.h"
#include "chain/workloads.h"
#include "gc/instance.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "net/server.h"
#include "serve/cache.h"
#include "serve/component_pool.h"
#include "serve/pool.h"
#include "serve/prebuilt_pool.h"
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

/** A Transport that records every byte it writes, then forwards it. */
class TapTransport : public Transport
{
  public:
    explicit TapTransport(Transport &inner) : inner_(inner) {}

    void
    writeAll(const uint8_t *data, size_t n) override
    {
        written_.insert(written_.end(), data, data + n);
        inner_.writeAll(data, n);
    }

    void
    readAll(uint8_t *data, size_t n) override
    {
        inner_.readAll(data, n);
    }

    std::string
    describe() const override
    {
        return "tap of " + inner_.describe();
    }

    /** Frame payloads written so far (u32 little-endian length heads). */
    std::vector<std::vector<uint8_t>>
    frames() const
    {
        std::vector<std::vector<uint8_t>> out;
        size_t at = 0;
        while (at + 4 <= written_.size()) {
            const size_t n = size_t(written_[at]) |
                             size_t(written_[at + 1]) << 8 |
                             size_t(written_[at + 2]) << 16 |
                             size_t(written_[at + 3]) << 24;
            at += 4;
            out.emplace_back(written_.begin() + long(at),
                             written_.begin() + long(at + n));
            at += n;
        }
        return out;
    }

  private:
    Transport &inner_;
    std::vector<uint8_t> written_;
};

/**
 * The garbler's frames of two sessions on fresh connections are
 * identical except frames 1 and 2, the base-OT points and the masked
 * OT pairs, whose randomness is drawn per session from the OS; those
 * two match in size.
 */
void
expectSameGarblerFrames(const TapTransport &a, const TapTransport &b)
{
    const std::vector<std::vector<uint8_t>> fa = a.frames();
    const std::vector<std::vector<uint8_t>> fb = b.frames();
    ASSERT_EQ(fa.size(), fb.size());
    ASSERT_GT(fa.size(), 4u);
    for (size_t i = 0; i < fa.size(); ++i) {
        ASSERT_EQ(fa[i].size(), fb[i].size()) << "frame " << i;
        if (i != 1 && i != 2)
            EXPECT_TRUE(fa[i] == fb[i]) << "frame " << i;
    }
}

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

TEST(GarbledInstance, CaptureMatchesStreamingGarbler)
{
    const Workload wl = vipWorkload("Hamm", false);
    const uint64_t seed = 0xfeedbeef;
    const GarbledInstance inst = captureGarbling(wl.netlist, seed);

    StreamingGarbler ref(wl.netlist, seed);
    std::vector<GarbledTable> ref_tables;
    ref.run([&](const GarbledTable &t) { ref_tables.push_back(t); });

    EXPECT_EQ(inst.seed, seed);
    const InputLabels in = inst.inputLabels();
    const InputLabels &ref_in = ref.inputs();
    EXPECT_EQ(in.offset, ref_in.offset);
    ASSERT_EQ(in.zero.size(), wl.netlist.numInputs());
    EXPECT_EQ(in.zero, ref_in.zero);
    // activeLabel() re-expands the seed up to its wire on every call,
    // so it is checked at a few wires rather than across all inputs.
    ASSERT_NE(wl.netlist.constOne, kNoWire);
    for (WireId w : {WireId(0), WireId(wl.netlist.numInputs() - 1),
                     wl.netlist.constOne}) {
        EXPECT_EQ(inst.activeLabel(w, false), ref_in.activeLabel(w, false));
        EXPECT_EQ(inst.activeLabel(w, true), ref_in.activeLabel(w, true));
    }
    EXPECT_EQ(inst.tables, ref_tables);
    ASSERT_EQ(inst.outputZero.size(), wl.netlist.outputs.size());
    for (size_t i = 0; i < inst.outputZero.size(); ++i)
        EXPECT_EQ(inst.decodeBit(i), ref.decodeBit(i));
    EXPECT_EQ(inst.byteSize(), sizeof(inst.seed) + sizeof(inst.numInputs) +
                                   inst.outputZero.size() * kLabelBytes +
                                   inst.tables.size() * kTableBytes);
}

// A pooled item keeps its seed, not its input labels: a Million:32
// instance (65 inputs, 32 ANDs, 1 output) that stored the offset and
// 65 input zero labels would take 2,096 bytes.
TEST(GarbledInstance, SeedBackedInstanceIsSmall)
{
    const Workload million = resolveWorkload("Million:32");
    const GarbledInstance inst = captureGarbling(million.netlist, 9);
    EXPECT_LE(inst.byteSize(), 1100u);
    EXPECT_EQ(inst.byteSize(), 8u + 4u + 16u + 32u * 32u);
}

namespace {

/**
 * FNV-1a over everything a captured garbling defines: the global
 * offset, every primary-input zero label, the output zero labels and
 * the tables.
 */
uint64_t
instanceDigest(const GarbledInstance &inst)
{
    uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](const Label &l) {
        for (uint64_t word : {l.lo, l.hi})
            for (int i = 0; i < 8; ++i) {
                digest ^= (word >> (8 * i)) & 0xff;
                digest *= 0x100000001b3ull;
            }
    };
    const InputLabels in = inst.inputLabels();
    mix(in.offset);
    for (const Label &l : in.zero)
        mix(l);
    for (const Label &l : inst.outputZero)
        mix(l);
    for (const GarbledTable &t : inst.tables) {
        mix(t.tg);
        mix(t.te);
    }
    return digest;
}

} // namespace

// Captures at fixed seeds, recorded when instances stored their input
// labels: an instance that keeps only its seed must expand to the
// same offset and labels.
TEST(GarbledInstance, CaptureDigestGolden)
{
    const Workload million = resolveWorkload("Million:32");
    const uint64_t digest =
        instanceDigest(captureGarbling(million.netlist, 2024));
    EXPECT_EQ(digest, 0x84348244bbabbb7full) << std::hex << digest;
    const struct
    {
        const char *spec;
        uint64_t digest;
    } kGolden[] = {
        {"ADD:32", 0xfe1627fa494e3c52ull},
        {"CMP:32", 0x10c162a6c1ef8d54ull},
        {"MUX:8", 0xc921672cc7b08101ull},
    };
    for (const auto &g : kGolden) {
        const uint64_t d = instanceDigest(
            chain::captureComponent(chain::parseComponentSpec(g.spec), 77)
                .inst);
        EXPECT_EQ(d, g.digest) << g.spec << " " << std::hex << d;
    }
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

// A popped instance replays the exact frames an inline garbling at its
// seed sends; only the OT phase's per-session randomness differs.
TEST(GarblePool, PooledReplayIsWireIdenticalToInlineAtItsSeed)
{
    const Workload wl = resolveWorkload("Million:32");
    PoolOptions popts;
    popts.depth = 1;
    GarblePool pool(popts);
    pool.track("Million:32", wl.netlist);
    pool.prewarm();
    const std::unique_ptr<GarbledInstance> inst = pool.tryPop("Million:32");
    ASSERT_NE(inst, nullptr);

    auto session = [&](bool pooled) {
        auto [gend, eend] = LoopbackTransport::createPair();
        RemoteResult eres;
        PeerThread evaluator([&, t = std::move(eend)] {
            t->handshake(PeerRole::Evaluator);
            eres = runRemoteEvaluator(wl.netlist, wl.evaluatorBits, *t);
        });
        gend->handshake(PeerRole::Garbler);
        auto tap = std::make_unique<TapTransport>(*gend);
        if (pooled)
            runRemoteGarbler(wl.netlist, wl.garblerBits, *tap, *inst);
        else
            runRemoteGarbler(wl.netlist, wl.garblerBits, *tap, inst->seed);
        evaluator.join();
        EXPECT_EQ(eres.outputs, wl.netlist.evaluate(wl.garblerBits,
                                                    wl.evaluatorBits));
        return tap;
    };
    const auto pooled = session(true);
    const auto inline_run = session(false);
    expectSameGarblerFrames(*pooled, *inline_run);
}

TEST(ComponentPool, PooledChainIsWireIdenticalToInlineAtItsSeeds)
{
    const chain::ChainWorkload wl =
        chain::resolveChainWorkload("ChainMillSum:32");
    PoolOptions popts;
    popts.depth = wl.plan.nodes.size(); // every node hits after prewarm
    ComponentPool pool(popts);
    pool.trackPlan(wl.plan);
    pool.prewarm();

    // Record each node's pooled seed, then garble inline at the same.
    std::vector<uint64_t> seeds(wl.plan.nodes.size());
    const chain::ComponentProvider popped = pool.provider();
    const chain::ComponentProvider recording =
        [&](uint32_t node, const chain::ComponentSpec &spec) {
            chain::AcquiredComponent acq = popped(node, spec);
            seeds[node] = acq.component->inst.seed;
            return acq;
        };
    const chain::ComponentProvider same_seeds =
        [&](uint32_t node, const chain::ComponentSpec &spec) {
            chain::AcquiredComponent acq;
            acq.component = std::make_unique<chain::GarbledComponent>(
                chain::captureComponent(spec, seeds[node]));
            return acq;
        };

    auto session = [&](const chain::ComponentProvider &provider,
                       size_t expect_pooled) {
        auto [gend, eend] = LoopbackTransport::createPair();
        chain::ChainResult eres;
        PeerThread evaluator([&, t = std::move(eend)] {
            t->handshake(PeerRole::Evaluator);
            eres = chain::runChainEvaluator(wl.plan, wl.evaluatorBits, *t);
        });
        gend->handshake(PeerRole::Garbler);
        auto tap = std::make_unique<TapTransport>(*gend);
        const chain::ChainResult gres =
            chain::runChainGarbler(wl.plan, wl.garblerBits, *tap, provider);
        evaluator.join();
        EXPECT_EQ(eres.outputs, wl.expectedOutputs);
        EXPECT_EQ(gres.pooledComponents, expect_pooled);
        return tap;
    };
    const auto pooled = session(recording, wl.plan.nodes.size());
    const auto inline_run = session(same_seeds, 0);
    expectSameGarblerFrames(*pooled, *inline_run);
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

    EXPECT_NE(a->seed, b->seed);
    const InputLabels a_in = a->inputLabels();
    const InputLabels b_in = b->inputLabels();
    EXPECT_FALSE(a_in.offset == b_in.offset);
    ASSERT_EQ(a_in.zero.size(), b_in.zero.size());
    for (WireId w = 0; w < wl.netlist.numInputs(); ++w)
        EXPECT_FALSE(a_in.zero[w] == b_in.zero[w]);
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
        inputs[w] = a_in.activeLabel(w, bit);
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

TEST(PrebuiltPool, PrewarmTopsUpAQueueAboveLowWater)
{
    // One pop leaves 3 of 4 ready, above the low-water mark of 2, so
    // the fillers stay quiet. prewarm() must fill the queue anyway, not
    // wait for a trigger that only a later pop could trip.
    PoolOptions popts;
    popts.depth = 4;
    popts.lowWater = 2;
    PrebuiltPool<std::unique_ptr<int>> pool(popts);
    pool.track("k", [](uint64_t) { return std::make_unique<int>(1); });
    pool.prewarm();
    ASSERT_NE(pool.tryPop("k"), nullptr);

    auto topped = std::async(std::launch::async, [&] { pool.prewarm(); });
    const bool returned = topped.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    EXPECT_TRUE(returned) << "prewarm() blocked on a queue above low water";
    if (!returned) {
        // Trip the trigger, so the blocked prewarm() returns.
        pool.tryPop("k");
        pool.tryPop("k");
    }
    topped.get();
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.ready, 4u);
    EXPECT_EQ(s.produced, 5u);
}

TEST(PrebuiltPool, DestroyMidMakeJoinsPromptlyAndDropsInflightItems)
{
    // Four fillers are each 200 ms into a make (a stand-in for a long
    // garbling) when the pool is destroyed. The destructor waits for
    // those makes only, starts no new one, and the fillers drop their
    // items: none is queued (it would then die on this thread, with
    // the pool's queues). Filling depth 1000 would take 50 s.
    const std::thread::id self = std::this_thread::get_id();
    std::atomic<int> started{0}, made{0}, alive{0}, queued{0};
    struct Counted
    {
        std::thread::id owner;
        std::atomic<int> *alive, *queued;
        ~Counted()
        {
            --*alive;
            if (std::this_thread::get_id() == owner)
                ++*queued;
        }
    };
    PoolOptions popts;
    popts.depth = 1000;
    popts.threads = 4;
    auto pool =
        std::make_unique<PrebuiltPool<std::unique_ptr<Counted>>>(popts);
    pool->track("k", [&](uint64_t) {
        ++started;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        ++made;
        ++alive;
        return std::unique_ptr<Counted>(new Counted{self, &alive, &queued});
    });
    while (started < 4)
        std::this_thread::yield();
    const PoolStats before = pool->stats();
    const auto t0 = std::chrono::steady_clock::now();
    pool.reset();
    const auto teardown = std::chrono::steady_clock::now() - t0;

    EXPECT_EQ(before.produced, 0u);
    EXPECT_LT(teardown, std::chrono::seconds(5));
    EXPECT_EQ(started.load(), 4); // nothing started after the stop
    EXPECT_EQ(made.load(), 4);    // the in-flight makes ran out
    EXPECT_EQ(alive.load(), 0);   // every item is gone...
    EXPECT_EQ(queued.load(), 0);  // ...dropped by its filler
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

TEST(PrebuiltPool, KeySetStopsAtTheCap)
{
    PoolOptions popts;
    popts.depth = 1;
    PrebuiltPool<std::unique_ptr<int>> pool(popts);
    for (size_t k = 0; k <= kMaxPoolKeys; ++k)
        pool.track("k" + std::to_string(k),
                   [](uint64_t) { return std::make_unique<int>(0); });
    pool.prewarm();
    const PoolStats s = pool.stats();
    EXPECT_EQ(s.tracked, kMaxPoolKeys);
    EXPECT_EQ(s.ready, kMaxPoolKeys);

    // The key past the cap is never filled: each pop is a miss.
    const std::string past = "k" + std::to_string(kMaxPoolKeys);
    EXPECT_EQ(pool.tryPop(past), nullptr);
    EXPECT_EQ(pool.stats().misses, 1u);
    EXPECT_EQ(pool.stats().tracked, kMaxPoolKeys);
}

TEST(GcServer, SpecAliasesAreRefusedAndNeverPooled)
{
    // Every alias below once resolved to Million-8 under its own
    // cache and pool key.
    PoolOptions popts;
    popts.depth = 1;
    GarblePool pool(popts);
    ServerOptions opts;
    opts.threads = 1;
    opts.pool = &pool;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Million:8");
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        clientHello(*client_end, PeerRole::Evaluator, "Million:8");
        const RemoteResult res = runRemoteEvaluator(
            wl.netlist, wl.evaluatorBits, *client_end);
        EXPECT_EQ(res.outputs, wl.expectedOutputs);
    }
    for (const char *alias : {"Million:08", "Million: 8", "Million:+8",
                              "Million:0008", "Million:\t8"}) {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        EXPECT_THROW(
            clientHello(*client_end, PeerRole::Evaluator, alias), NetError)
            << alias;
    }
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 5u);
    EXPECT_EQ(totals.poolMisses, 1u);
    EXPECT_EQ(pool.stats().tracked, 1u);
}

TEST(GcServer, EvictedSpecReResolvesToTheSameCircuit)
{
    // More distinct specs than the server's resolution caches hold, on
    // one connection: the first spec is evicted, and its next session
    // re-resolves an identical netlist (the evaluating server checks
    // the garbler's circuit fingerprint against it).
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    OtConnectionCache ot;
    RemoteOptions ropts;
    ropts.otCache = &ot;
    std::vector<uint32_t> sizes;
    for (uint32_t n = 1; n <= 80; ++n)
        sizes.push_back(n);
    sizes.push_back(1);
    for (const uint32_t n : sizes) {
        const std::string spec = "Million:" + std::to_string(n);
        const Workload wl = resolveWorkload(spec);
        clientRequest(*client_end, spec);
        const RemoteResult res = runRemoteGarbler(
            wl.netlist, wl.garblerBits, *client_end, n, ropts);
        EXPECT_EQ(res.outputs, wl.netlist.evaluate(wl.garblerBits,
                                                   wl.evaluatorBits))
            << spec;
    }
    client_end.reset();
    server.drain();
    EXPECT_EQ(server.totals().sessionsServed, sizes.size());
    EXPECT_EQ(server.totals().sessionsFailed, 0u);
}
