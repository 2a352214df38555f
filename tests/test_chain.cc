/**
 * @file
 * The chaining subsystem (src/chain/ + serve/component_pool.h):
 * component library shapes, plan validation, link-table translation,
 * chained-vs-monolithic bit parity over the loopback transport with
 * wire accounting pinned exact, label freshness (the PR 5/8
 * instance-reuse attack shape, replayed at the component layer), and
 * the ComponentPool.
 */
#include <gtest/gtest.h>

#include <exception>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "api/backend.h"
#include "api/session.h"
#include "chain/component.h"
#include "chain/link.h"
#include "chain/workloads.h"
#include "crypto/hash.h"
#include "crypto/prg.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/remote.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/component_pool.h"
#include "session_golden.h"

using namespace haac;
using namespace haac::chain;

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
    std::exception_ptr error_; ///< declared before thread_: the
                               ///< thread may write it immediately
    std::thread thread_;
};

std::vector<bool>
u64Bits(uint64_t v, uint32_t n)
{
    std::vector<bool> bits(n);
    for (uint32_t i = 0; i < n; ++i)
        bits[i] = (v >> i) & 1;
    return bits;
}

uint64_t
bitsU64(const std::vector<bool> &bits)
{
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i)
        v |= uint64_t(bits[i] ? 1 : 0) << i;
    return v;
}

/** Both chained sides over loopback; returns {garbler, evaluator}. */
std::pair<ChainResult, ChainResult>
runChainPair(const ChainPlan &plan, const std::vector<bool> &gbits,
             const std::vector<bool> &ebits,
             const ComponentProvider &provider,
             uint32_t segment_tables = 1024)
{
    auto [gend, eend] = LoopbackTransport::createPair();
    RemoteOptions opts;
    opts.segmentTables = segment_tables;
    ChainResult gres, eres;
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        gres = runChainGarbler(plan, gbits, *t, provider, opts);
    });
    eend->handshake(PeerRole::Evaluator);
    eres = runChainEvaluator(plan, ebits, *eend, opts);
    garbler.join();
    return {gres, eres};
}

/** IKNP wire shape for m OTs with a fresh base phase (gc/ot_ext.h). */
uint64_t
expectedOtDownlink(uint32_t m)
{
    return 4096u + 32u * uint64_t(m); // base seeds + masked pairs
}

uint64_t
expectedOtUplink(uint32_t m)
{
    const uint64_t blocks = (uint64_t(m) + 127) / 128;
    // Base public key + masked columns (KOS15 pad block included)
    // + the 32-byte KOS15 consistency proof.
    return 32u + 2048u * (blocks + 1) + 32u;
}

/** Input ports across the plan's nodes driven by one of @p kinds. */
uint32_t
countPorts(const ChainPlan &plan, std::initializer_list<SourceKind> kinds)
{
    uint32_t n = 0;
    for (const auto &node : plan.sources)
        for (const InputSource &s : node)
            for (const SourceKind k : kinds)
                n += s.kind == k ? 1 : 0;
    return n;
}

uint64_t
planAndGates(const ChainPlan &plan)
{
    uint64_t n = 0;
    for (const ComponentSpec &spec : plan.nodes)
        n += buildComponent(spec).numAndGates();
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// Component library
// ---------------------------------------------------------------------------

TEST(ComponentSpec, NameParseRoundTrip)
{
    for (ComponentKind kind :
         {ComponentKind::Add, ComponentKind::Sub, ComponentKind::Cmp,
          ComponentKind::Mux, ComponentKind::Xor, ComponentKind::Mul}) {
        const ComponentSpec spec{kind, 16};
        const ComponentSpec back = parseComponentSpec(spec.name());
        EXPECT_TRUE(back == spec) << spec.name();
    }
    EXPECT_EQ(ComponentSpec({ComponentKind::Add, 32}).name(), "ADD:32");

    EXPECT_THROW(parseComponentSpec("ADD"), std::invalid_argument);
    EXPECT_THROW(parseComponentSpec("ADD:"), std::invalid_argument);
    EXPECT_THROW(parseComponentSpec("ADD:0"), std::invalid_argument);
    EXPECT_THROW(parseComponentSpec("ADD:12x"), std::invalid_argument);
    EXPECT_THROW(parseComponentSpec("NAND:8"), std::invalid_argument);
    EXPECT_THROW(parseComponentSpec("ADD:100000"),
                 std::invalid_argument);
    // MUL is capped tighter than the rest (quadratic gate count).
    EXPECT_NO_THROW(parseComponentSpec("ADD:512"));
    EXPECT_THROW(parseComponentSpec("MUL:512"), std::invalid_argument);
}

TEST(Component, NetlistsComputeTheirFunction)
{
    const uint32_t w = 8;
    const uint64_t mask = (1u << w) - 1;
    Prg prg(2024);
    for (int trial = 0; trial < 20; ++trial) {
        const uint64_t a = prg.nextU64() & mask;
        const uint64_t b = prg.nextU64() & mask;
        const bool s = (prg.nextU64() & 1) != 0;

        auto run = [&](ComponentKind kind,
                       const std::vector<bool> &in) {
            return bitsU64(
                buildComponent({kind, w}).evaluate(in, {}));
        };
        auto cat = [](std::vector<bool> x, const std::vector<bool> &y) {
            x.insert(x.end(), y.begin(), y.end());
            return x;
        };
        const std::vector<bool> ab =
            cat(u64Bits(a, w), u64Bits(b, w));

        EXPECT_EQ(run(ComponentKind::Add, ab), (a + b) & mask);
        EXPECT_EQ(run(ComponentKind::Sub, ab), (a - b) & mask);
        EXPECT_EQ(run(ComponentKind::Cmp, ab), a < b ? 1u : 0u);
        EXPECT_EQ(run(ComponentKind::Xor, ab), a ^ b);
        EXPECT_EQ(run(ComponentKind::Mul, ab), (a * b) & mask);
        EXPECT_EQ(run(ComponentKind::Mux,
                      cat(u64Bits(s ? 1 : 0, 1), ab)),
                  s ? a : b);
    }
}

TEST(Component, EmitRejectsWrongArity)
{
    CircuitBuilder cb;
    const Bits in = cb.garblerInputs(7); // ADD:4 takes 8
    EXPECT_THROW(emitComponent(cb, {ComponentKind::Add, 4}, in),
                 std::invalid_argument);
    EXPECT_THROW(buildComponent({ComponentKind::Add, 0}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Plan validation and the monolithic equivalent
// ---------------------------------------------------------------------------

namespace {

/** ADD:4 fed by garbler a, evaluator b — the smallest valid plan. */
ChainPlan
tinyPlan()
{
    ChainPlan plan;
    plan.name = "tiny";
    plan.garblerInputs = 4;
    plan.evaluatorInputs = 4;
    plan.nodes.push_back({ComponentKind::Add, 4});
    std::vector<InputSource> s;
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(InputSource::garbler(i));
    for (uint32_t i = 0; i < 4; ++i)
        s.push_back(InputSource::evaluator(i));
    plan.sources.push_back(std::move(s));
    for (uint32_t i = 0; i < 4; ++i)
        plan.outputs.push_back({0, i});
    return plan;
}

} // namespace

TEST(ChainPlan, CheckRejectsMalformedPlans)
{
    EXPECT_EQ(tinyPlan().check(), "");

    {
        ChainPlan p = tinyPlan(); // empty plan
        p.nodes.clear();
        p.sources.clear();
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // port count mismatch
        p.sources[0].pop_back();
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // garbler input out of range
        p.sources[0][0] = InputSource::garbler(4);
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // evaluator input out of range
        p.sources[0][4] = InputSource::evaluator(99);
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // self/forward link breaks the DAG
        p.sources[0][0] = InputSource::link(0, 0);
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // link names a missing output bit
        p.nodes.push_back({ComponentKind::Cmp, 4});
        std::vector<InputSource> s(8, InputSource::link(0, 0));
        s[7] = InputSource::link(0, 4); // ADD:4 has outputs 0..3
        p.sources.push_back(std::move(s));
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // no outputs
        p.outputs.clear();
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // output past the node's width
        p.outputs[0] = {0, 4};
        EXPECT_NE(p.check(), "");
    }
    {
        ChainPlan p = tinyPlan(); // unbuildable component
        p.nodes[0].width = 0;
        EXPECT_NE(p.check(), "");
    }
}

TEST(ChainPlan, MalformedPlanRejectedBeforeAnyWireTraffic)
{
    ChainPlan bad = tinyPlan();
    bad.sources[0][0] = InputSource::link(0, 0);

    auto [gend, eend] = LoopbackTransport::createPair();
    EXPECT_THROW(runChainGarbler(bad, std::vector<bool>(4), *gend,
                                 freshComponentProvider(1)),
                 std::invalid_argument);
    EXPECT_THROW(
        runChainEvaluator(bad, std::vector<bool>(4), *eend),
        std::invalid_argument);
    EXPECT_EQ(gend->rawBytesSent(), 0u);
    EXPECT_EQ(eend->rawBytesSent(), 0u);
}

TEST(ChainPlan, HashSeesStructure)
{
    const uint64_t base = tinyPlan().hash();
    EXPECT_EQ(base, tinyPlan().hash()); // deterministic

    ChainPlan renamed = tinyPlan();
    renamed.name = "other";
    EXPECT_EQ(renamed.hash(), base); // names are not structure

    ChainPlan widened = tinyPlan();
    widened.nodes[0].width = 4; // unchanged
    ChainPlan rewired = tinyPlan();
    std::swap(rewired.sources[0][0], rewired.sources[0][1]);
    ChainPlan other_kind = tinyPlan();
    other_kind.nodes[0].kind = ComponentKind::Sub;
    EXPECT_NE(rewired.hash(), base);
    EXPECT_NE(other_kind.hash(), base);
}

TEST(ChainPlan, MonolithicMatchesPerComponentEvaluation)
{
    Prg prg(7);
    for (const std::string &spec :
         {std::string("ChainMillSum:16"), std::string("ChainHammCmp:8"),
          std::string("ChainAbsDiff:8"),
          std::string("ChainProdCmp:8")}) {
        const ChainWorkload wl = resolveChainWorkload(spec);
        const Netlist mono = wl.plan.monolithic();
        EXPECT_EQ(mono.check(), "") << spec;
        for (int trial = 0; trial < 10; ++trial) {
            std::vector<bool> g(wl.plan.garblerInputs);
            std::vector<bool> e(wl.plan.evaluatorInputs);
            for (size_t i = 0; i < g.size(); ++i)
                g[i] = (prg.nextU64() & 1) != 0;
            for (size_t i = 0; i < e.size(); ++i)
                e[i] = (prg.nextU64() & 1) != 0;
            EXPECT_EQ(mono.evaluate(g, e), wl.plan.evaluate(g, e))
                << spec;
        }
    }
}

// ---------------------------------------------------------------------------
// Link tables
// ---------------------------------------------------------------------------

namespace {

/** The evaluator's decryption: producer's active label -> consumer's. */
Label
translateLinkLabel(const LinkTable &table, const Label &producer_active,
                   uint64_t link_index)
{
    const RekeyedHasher h(linkTweakOf(link_index));
    return table.row[producer_active.lsb() ? 1 : 0] ^ h(producer_active);
}

} // namespace

TEST(LinkTable, TranslatesBothValuesAcrossOffsets)
{
    // Two independently garbled components: producer ADD:4, consumer
    // CMP:4. Different seeds, different global offsets.
    const GarbledComponent prod =
        captureComponent({ComponentKind::Add, 4}, 11);
    const GarbledComponent cons =
        captureComponent({ComponentKind::Cmp, 4}, 22);
    const InputLabels prod_in = prod.inst.inputLabels();
    const InputLabels cons_in = cons.inst.inputLabels();
    ASSERT_FALSE(prod_in.offset == cons_in.offset);

    const uint64_t link = 5;
    const LinkTable t =
        buildLinkTable(prod.inst.outputZero[0], prod_in.offset,
                       cons_in.zero[2], cons_in.offset, link);

    for (bool v : {false, true}) {
        const Label y = v ? prod.inst.outputZero[0] ^ prod_in.offset
                          : prod.inst.outputZero[0];
        const Label want = cons.inst.activeLabel(2, v);
        EXPECT_TRUE(translateLinkLabel(t, y, link) == want);
    }
    // A wrong link index decrypts garbage, not the other row.
    EXPECT_FALSE(translateLinkLabel(t, prod.inst.outputZero[0],
                                    link + 1) ==
                 cons.inst.activeLabel(2, false));
}

TEST(LinkTable, BuildLinkTablesCoversEveryLinkedPort)
{
    const ChainWorkload wl = resolveChainWorkload("ChainMillSum:8");
    std::vector<GarbledComponent> comps;
    std::vector<const GarbledComponent *> ptrs;
    for (size_t n = 0; n < wl.plan.nodes.size(); ++n)
        comps.push_back(captureComponent(wl.plan.nodes[n], 100 + n));
    for (const GarbledComponent &c : comps)
        ptrs.push_back(&c);

    const std::vector<LinkTable> tables =
        buildLinkTables(wl.plan, ptrs);
    EXPECT_EQ(tables.size(), wl.plan.numLinks());
    EXPECT_EQ(wl.plan.numLinks(), 16u); // CMP:8's two 8-bit ports

    ptrs.pop_back();
    EXPECT_THROW(buildLinkTables(wl.plan, ptrs),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Chained protocol: parity with the monolithic compile, exact accounting
// ---------------------------------------------------------------------------

TEST(ChainProtocol, ChainedMatchesMonolithicOnCompositeWorkloads)
{
    for (const std::string &spec : chainWorkloadSpecs(8)) {
        const ChainWorkload wl = resolveChainWorkload(spec);

        // The acceptance identity: the plan's one-netlist compile and
        // its per-component plaintext evaluation agree...
        const std::vector<bool> mono = wl.plan.monolithic().evaluate(
            wl.garblerBits, wl.evaluatorBits);
        ASSERT_EQ(mono, wl.expectedOutputs) << spec;

        // ...and the chained two-party execution is bit-identical.
        auto [gres, eres] =
            runChainPair(wl.plan, wl.garblerBits, wl.evaluatorBits,
                         freshComponentProvider(4242));
        EXPECT_EQ(gres.outputs, wl.expectedOutputs) << spec;
        EXPECT_EQ(eres.outputs, wl.expectedOutputs) << spec;

        // Category-exact accounting, pinned to the plan's shape.
        const uint64_t nodes = wl.plan.nodes.size();
        uint32_t linked_nodes = 0;
        for (const auto &srcs : wl.plan.sources) {
            for (const InputSource &s : srcs)
                if (s.kind == SourceKind::Link) {
                    ++linked_nodes;
                    break;
                }
        }
        const uint32_t m = countPorts(wl.plan, {SourceKind::Evaluator});
        const uint32_t direct = countPorts(
            wl.plan,
            {SourceKind::Garbler, SourceKind::Zero, SourceKind::One});
        for (const ChainResult *r : {&gres, &eres}) {
            EXPECT_EQ(r->components, nodes) << spec;
            EXPECT_EQ(r->links, wl.plan.numLinks()) << spec;
            EXPECT_EQ(r->tableBytes,
                      planAndGates(wl.plan) * kTableBytes)
                << spec;
            // Direct ports plus each node's constant-one label.
            EXPECT_EQ(r->inputLabelBytes,
                      (direct + nodes) * kLabelBytes)
                << spec;
            EXPECT_EQ(r->linkFrames, linked_nodes) << spec;
            EXPECT_EQ(r->linkBytes,
                      uint64_t(linked_nodes) *
                              kLinkTableFrameHeaderBytes +
                          uint64_t(wl.plan.numLinks()) *
                              kLinkTableBytes)
                << spec;
            EXPECT_EQ(r->outputDecodeBytes, wl.plan.outputs.size())
                << spec;
            EXPECT_EQ(r->otBytes, expectedOtDownlink(m)) << spec;
            EXPECT_EQ(r->otUplinkBytes, expectedOtUplink(m)) << spec;
            EXPECT_EQ(r->totalBytes,
                      r->tableBytes + r->inputLabelBytes + r->otBytes +
                          r->linkBytes + r->outputDecodeBytes)
                << spec;
            EXPECT_EQ(r->pooledComponents, 0u) << spec;
            EXPECT_FALSE(r->otSetupReused) << spec;
        }
        EXPECT_EQ(gres.tableSegments, eres.tableSegments) << spec;
    }
}

TEST(ChainProtocol, SegmentOneStreamsTableByTable)
{
    const ChainWorkload wl = resolveChainWorkload("ChainAbsDiff:8");
    auto [gres, eres] =
        runChainPair(wl.plan, wl.garblerBits, wl.evaluatorBits,
                     freshComponentProvider(99), 1);
    EXPECT_EQ(gres.outputs, wl.expectedOutputs);
    EXPECT_EQ(eres.outputs, wl.expectedOutputs);
    // One frame per garbled table at segment size 1.
    EXPECT_EQ(gres.tableSegments, planAndGates(wl.plan));
    EXPECT_EQ(eres.tableSegments, planAndGates(wl.plan));
}

TEST(ChainProtocol, PlanMismatchFailsClosed)
{
    // Garbler linking one plan, evaluator expecting another: the
    // fingerprint must kill the session before any label is used.
    const ChainWorkload a = resolveChainWorkload("ChainMillSum:8");
    const ChainWorkload b = resolveChainWorkload("ChainAbsDiff:8");

    auto [gend, eend] = LoopbackTransport::createPair();
    std::exception_ptr garbler_error;
    PeerThread garbler([&, t = std::move(gend)] {
        try {
            t->handshake(PeerRole::Garbler);
            runChainGarbler(a.plan, a.garblerBits, *t,
                            freshComponentProvider(1));
        } catch (...) {
            garbler_error = std::current_exception();
        }
    });
    eend->handshake(PeerRole::Evaluator);
    EXPECT_THROW(runChainEvaluator(b.plan, b.evaluatorBits, *eend),
                 NetError);
    eend.reset(); // hang up; the garbler unblocks with a NetError
    garbler.join();
    EXPECT_NE(garbler_error, nullptr);
}

TEST(ChainProtocol, EvaluatorRefusesUnknownOtFlags)
{
    // A hand-rolled garbler sends a well-shaped plan fingerprint
    // (42 bytes, link.cc's ChainFingerprint) whose OT bytes are not
    // IKNP / a boolean cache flag, or whose reserved field is not 0.
    // The evaluator must throw NetError and hang up without sending a
    // byte back.
    const ChainWorkload wl = resolveChainWorkload("ChainMillSum:8");
    struct Case
    {
        uint8_t otMode, otCached;
        uint64_t reserved;
    };
    const Case cases[] = {{0, 0, 0}, {2, 0, 0}, {1, 2, 0}, {1, 0, 1}};
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "otMode " << int(c.otMode) << " otCached "
                     << int(c.otCached) << " reserved " << c.reserved);
        auto [gend, eend] = LoopbackTransport::createPair();
        PeerThread garbler([&, t = std::move(gend)] {
            t->handshake(PeerRole::Garbler);
            WireWriter w;
            w.u64(wl.plan.hash());
            w.u32(uint32_t(wl.plan.nodes.size()));
            w.u32(wl.plan.numLinks());
            w.u32(wl.plan.garblerInputs);
            w.u32(wl.plan.evaluatorInputs);
            w.u32(uint32_t(wl.plan.outputs.size()));
            w.u32(1024);
            w.u64(c.reserved);
            w.u8(c.otMode);
            w.u8(c.otCached);
            t->sendFrame(w.bytes());
            EXPECT_THROW(t->recvFrame(), NetError)
                << "the evaluator answered a bad fingerprint";
        });
        eend->handshake(PeerRole::Evaluator);
        OtConnectionCache cache;
        RemoteOptions opts;
        opts.otCache = &cache;
        try {
            runChainEvaluator(wl.plan, wl.evaluatorBits, *eend, opts);
            ADD_FAILURE() << "evaluator accepted the fingerprint";
        } catch (const NetError &e) {
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
        eend.reset(); // hang up
        garbler.join();
    }
}

TEST(ChainProtocol, ProviderReturningWrongComponentRejected)
{
    const ChainWorkload wl = resolveChainWorkload("ChainMillSum:8");
    auto [gend, eend] = LoopbackTransport::createPair();
    const ComponentProvider wrong = [](uint32_t,
                                       const ComponentSpec &) {
        AcquiredComponent acq;
        acq.component = std::make_unique<GarbledComponent>(
            captureComponent({ComponentKind::Xor, 3}, 1));
        return acq;
    };
    EXPECT_THROW(
        runChainGarbler(wl.plan, wl.garblerBits, *gend, wrong),
        std::invalid_argument);
}

TEST(ChainProtocol, BaseOtReusedAcrossChainedSessions)
{
    // Two chained sessions on one connection share the base-OT setup
    // through the same OtConnectionCache the serving layer uses.
    const ChainWorkload wl = resolveChainWorkload("ChainMillSum:8");
    const uint32_t m = countPorts(wl.plan, {SourceKind::Evaluator});

    auto [gend, eend] = LoopbackTransport::createPair();
    OtConnectionCache gcache, ecache;
    RemoteOptions gopts, eopts;
    gopts.otCache = &gcache;
    eopts.otCache = &ecache;

    ChainResult g1, g2, e1, e2;
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        g1 = runChainGarbler(wl.plan, wl.garblerBits, *t,
                             freshComponentProvider(10), gopts);
        g2 = runChainGarbler(wl.plan, wl.garblerBits, *t,
                             freshComponentProvider(20), gopts);
    });
    eend->handshake(PeerRole::Evaluator);
    e1 = runChainEvaluator(wl.plan, wl.evaluatorBits, *eend, eopts);
    e2 = runChainEvaluator(wl.plan, wl.evaluatorBits, *eend, eopts);
    garbler.join();

    for (const ChainResult *r : {&g1, &e1, &g2, &e2})
        EXPECT_EQ(r->outputs, wl.expectedOutputs);
    EXPECT_FALSE(g1.otSetupReused);
    EXPECT_TRUE(g2.otSetupReused);
    EXPECT_TRUE(e2.otSetupReused);
    // The second session pays no base phase in either direction.
    EXPECT_EQ(g2.otBytes, g1.otBytes - 4096u);
    EXPECT_EQ(g2.otUplinkBytes, g1.otUplinkBytes - 32u);
    EXPECT_EQ(g2.otBytes, 32u * uint64_t(m));
}

namespace {

/**
 * Recorded on the chained runners before they shared one session
 * shape: each workload at segment 1 then 1024, components garbled
 * from seed base 0x5EED, garbler row before evaluator row.
 */
const char *const kChainGolden[] = {
    "ChainMillSum:32 seg1 garbler: table=3072 input=1072 ot=6144 up=4160 "
    "decode=1 link=2057/1 total=12346 control=43 segs=96 raw=13688/4177 "
    "frames=325/4 lens=909ca32c9d7f686f/f351bb5218b40484 "
    "post=25b10dab0a3796b3",
    "ChainMillSum:32 seg1 evaluator: table=3072 input=1072 ot=6144 up=4160 "
    "decode=1 link=2057/1 total=12346 control=43 segs=96 raw=4177/13688 "
    "frames=4/325 lens=f351bb5218b40484/909ca32c9d7f686f "
    "post=25b10dab0a3796b3",
    "ChainMillSum:32 seg1024 garbler: table=3072 input=1072 ot=6144 up=4160 "
    "decode=1 link=2057/1 total=12346 control=43 segs=3 raw=12424/4173 "
    "frames=9/3 lens=c052fd35db0147bf/407d2a8ce83a03b4 "
    "post=25b10dab0a3796b3",
    "ChainMillSum:32 seg1024 evaluator: table=3072 input=1072 ot=6144 "
    "up=4160 decode=1 link=2057/1 total=12346 control=43 segs=3 "
    "raw=4173/12424 frames=3/9 lens=407d2a8ce83a03b4/c052fd35db0147bf "
    "post=25b10dab0a3796b3",
    "ChainProdCmp:32 seg1 garbler: table=66560 input=1072 ot=6144 up=4160 "
    "decode=1 link=2057/1 total=75834 control=43 segs=2080 raw=85112/4177 "
    "frames=2309/4 lens=509c2cea2692ac6f/f351bb5218b40484 "
    "post=f42d2ef1979198e6",
    "ChainProdCmp:32 seg1 evaluator: table=66560 input=1072 ot=6144 up=4160 "
    "decode=1 link=2057/1 total=75834 control=43 segs=2080 raw=4177/85112 "
    "frames=4/2309 lens=f351bb5218b40484/509c2cea2692ac6f "
    "post=f42d2ef1979198e6",
    "ChainProdCmp:32 seg1024 garbler: table=66560 input=1072 ot=6144 "
    "up=4160 decode=1 link=2057/1 total=75834 control=43 segs=3 "
    "raw=75912/4173 frames=9/3 lens=922e21c23e85daff/407d2a8ce83a03b4 "
    "post=f42d2ef1979198e6",
    "ChainProdCmp:32 seg1024 evaluator: table=66560 input=1072 ot=6144 "
    "up=4160 decode=1 link=2057/1 total=75834 control=43 segs=3 "
    "raw=4173/75912 frames=3/9 lens=407d2a8ce83a03b4/922e21c23e85daff "
    "post=f42d2ef1979198e6",
    "ChainAbsDiff:32 seg1 garbler: table=4096 input=1600 ot=7168 up=4160 "
    "decode=32 link=2089/1 total=14985 control=74 segs=128 raw=16647/4208 "
    "frames=405/4 lens=cc6940c236fa83ee/92a1e86535a15335 "
    "post=2a360c7797897589",
    "ChainAbsDiff:32 seg1 evaluator: table=4096 input=1600 ot=7168 up=4160 "
    "decode=32 link=2089/1 total=14985 control=74 segs=128 raw=4208/16647 "
    "frames=4/405 lens=92a1e86535a15335/cc6940c236fa83ee "
    "post=2a360c7797897589",
    "ChainAbsDiff:32 seg1024 garbler: table=4096 input=1600 ot=7168 up=4160 "
    "decode=32 link=2089/1 total=14985 control=74 segs=4 raw=15067/4204 "
    "frames=10/3 lens=1380089f1db6549c/e122558a77b82e25 "
    "post=2a360c7797897589",
    "ChainAbsDiff:32 seg1024 evaluator: table=4096 input=1600 ot=7168 "
    "up=4160 decode=32 link=2089/1 total=14985 control=74 segs=4 "
    "raw=4204/15067 frames=3/10 lens=e122558a77b82e25/1380089f1db6549c "
    "post=2a360c7797897589",
};

} // namespace

TEST(ChainProtocol, SessionShapeGolden)
{
    // Every byte category, link and table frame boundary and post-OT
    // garbler byte of the chained session, on both sides.
    std::vector<std::string> rows;
    for (const char *spec : {"ChainMillSum:32", "ChainProdCmp:32",
                             "ChainAbsDiff:32"}) {
        const ChainWorkload wl = resolveChainWorkload(spec);
        for (uint32_t segment : {1u, 1024u}) {
            const std::string name =
                std::string(spec) + " seg" + std::to_string(segment);
            auto [gend, eend] = LoopbackTransport::createPair();
            golden::RecordingTransport g(*gend), e(*eend);
            RemoteOptions opts;
            opts.segmentTables = segment;
            ChainResult gres;
            PeerThread garbler([&] {
                gres = runChainGarbler(wl.plan, wl.garblerBits, g,
                                       freshComponentProvider(0x5EED),
                                       opts);
            });
            const ChainResult eres =
                runChainEvaluator(wl.plan, wl.evaluatorBits, e, opts);
            garbler.join();
            EXPECT_EQ(gres.outputs, wl.expectedOutputs) << name;
            EXPECT_EQ(eres.outputs, wl.expectedOutputs) << name;
            rows.push_back(golden::sessionRow(name, true, gres, g,
                                              gres.linkBytes,
                                              gres.linkFrames));
            rows.push_back(golden::sessionRow(name, false, eres, e,
                                              eres.linkBytes,
                                              eres.linkFrames));
        }
    }
    ASSERT_EQ(rows.size(), std::size(kChainGolden)) << [&] {
        std::string all;
        for (const std::string &row : rows)
            all += "    \"" + row + "\",\n";
        return all;
    }();
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], kChainGolden[i]);
}

// ---------------------------------------------------------------------------
// Label freshness: the PR 5/8 reuse attack, replayed at the chain layer
// ---------------------------------------------------------------------------

TEST(ChainFreshness, FreshProviderNeverRepeatsARandomness)
{
    const ComponentProvider provider = freshComponentProvider();
    const ComponentSpec spec{ComponentKind::Add, 8};
    const AcquiredComponent a = provider(0, spec);
    const AcquiredComponent b = provider(0, spec); // same node id!
    ASSERT_NE(a.component, nullptr);
    ASSERT_NE(b.component, nullptr);
    EXPECT_FALSE(a.pooled);

    const InputLabels a_in = a.component->inst.inputLabels();
    const InputLabels b_in = b.component->inst.inputLabels();
    EXPECT_FALSE(a_in.offset == b_in.offset);
    ASSERT_EQ(a_in.zero.size(), b_in.zero.size());
    for (size_t w = 0; w < a_in.zero.size(); ++w)
        EXPECT_FALSE(a_in.zero[w] == b_in.zero[w]);
    ASSERT_GT(a.component->inst.tables.size(), 0u);
    EXPECT_FALSE(a.component->inst.tables.front() ==
                 b.component->inst.tables.front());
}

TEST(ChainFreshness, ReusedComponentForgesUnauthorizedEvaluations)
{
    // Why a component must be linked at most once: if the same
    // garbling serves two sessions, evaluator A's OT choice 0 and
    // evaluator B's OT choice 1 for one port hand the colluders both
    // labels of that wire — i.e. the component's global offset. With
    // the offset, either evaluator forges the complement of every
    // label it holds and evaluates the component under inputs the
    // garbler never authorized. Replay of the PR 5/8 attack shape.
    const uint32_t w = 4;
    const uint64_t mask = (1u << w) - 1;
    const GarbledComponent comp =
        captureComponent({ComponentKind::Add, w}, 77);
    const Netlist nl = buildComponent({ComponentKind::Add, w});

    // Two sessions' OT deliveries for port-b bit 0:
    const Label session_a = comp.inst.activeLabel(w, false);
    const Label session_b = comp.inst.activeLabel(w, true);
    const Label recovered = session_a ^ session_b;
    EXPECT_TRUE(recovered == comp.inst.inputLabels().offset);

    // Honest session: a = 9 (garbler), b = 4 (evaluator, via OT).
    const uint64_t a = 9, b = 4, forged_b = 13;
    std::vector<Label> labels(nl.numInputs());
    for (uint32_t i = 0; i < w; ++i) {
        labels[i] = comp.inst.activeLabel(i, (a >> i) & 1);
        labels[w + i] = comp.inst.activeLabel(w + i, (b >> i) & 1);
    }
    labels[nl.constOne] = comp.inst.activeLabel(nl.constOne, true);

    // The attacker flips its own port's labels with the recovered
    // offset and evaluates an input it never sent to the OT.
    for (uint32_t i = 0; i < w; ++i)
        if ((((b ^ forged_b) >> i) & 1) != 0)
            labels[w + i] = labels[w + i] ^ recovered;
    size_t next = 0;
    const std::vector<Label> out = evaluateStreaming(
        nl, labels, [&] { return comp.inst.tables[next++]; });
    uint64_t forged_sum = 0;
    for (size_t i = 0; i < out.size(); ++i)
        forged_sum |= uint64_t(out[i].lsb() != comp.inst.decodeBit(i))
                      << i;
    EXPECT_EQ(forged_sum, (a + forged_b) & mask);
}

// ---------------------------------------------------------------------------
// ComponentPool
// ---------------------------------------------------------------------------

TEST(ComponentPool, PrewarmPopAndStats)
{
    serve::PoolOptions popts;
    popts.depth = 2;
    serve::ComponentPool pool(popts);
    pool.track({ComponentKind::Add, 8});
    pool.track({ComponentKind::Add, 8}); // idempotent
    pool.track({ComponentKind::Cmp, 8});
    pool.prewarm();

    serve::PoolStats s = pool.stats();
    EXPECT_EQ(s.tracked, 2u);
    EXPECT_EQ(s.ready, 4u);
    EXPECT_EQ(s.produced, 4u);

    const auto a = pool.tryPop({ComponentKind::Add, 8});
    const auto b = pool.tryPop({ComponentKind::Add, 8});
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->spec == ComponentSpec({ComponentKind::Add, 8}));

    // Pool freshness, PR 5/8 shape: two pops share no randomness.
    const InputLabels a_in = a->inst.inputLabels();
    const InputLabels b_in = b->inst.inputLabels();
    EXPECT_FALSE(a_in.offset == b_in.offset);
    for (size_t w = 0; w < a_in.zero.size(); ++w)
        EXPECT_FALSE(a_in.zero[w] == b_in.zero[w]);

    // Untracked spec: a miss, never a stall.
    EXPECT_EQ(pool.tryPop({ComponentKind::Mul, 8}), nullptr);
    s = pool.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(ComponentPool, PooledChainedSessionBitIdentical)
{
    const ChainWorkload wl = resolveChainWorkload("ChainProdCmp:8");

    serve::PoolOptions popts;
    popts.depth = 2;
    serve::ComponentPool pool(popts);
    pool.trackPlan(wl.plan);
    pool.prewarm();

    auto [gres, eres] = runChainPair(
        wl.plan, wl.garblerBits, wl.evaluatorBits, pool.provider());
    EXPECT_EQ(gres.outputs, wl.expectedOutputs);
    EXPECT_EQ(eres.outputs, wl.expectedOutputs);
    // Every component came pre-garbled; request-time crypto was link
    // tables and the OT only.
    EXPECT_EQ(gres.pooledComponents, wl.plan.nodes.size());
    EXPECT_EQ(pool.stats().hits, wl.plan.nodes.size());

    // A cold pool degrades to inline garbling, never to failure.
    serve::ComponentPool cold(popts);
    auto [g2, e2] = runChainPair(wl.plan, wl.garblerBits,
                                 wl.evaluatorBits, cold.provider());
    EXPECT_EQ(g2.outputs, wl.expectedOutputs);
    EXPECT_EQ(e2.outputs, wl.expectedOutputs);
    EXPECT_EQ(g2.pooledComponents, 0u);
}

// ---------------------------------------------------------------------------
// Workload specs
// ---------------------------------------------------------------------------

TEST(ChainWorkloads, SpecResolutionAndRejection)
{
    EXPECT_TRUE(isChainSpec("ChainMillSum:32"));
    EXPECT_FALSE(isChainSpec("Million:32"));
    EXPECT_FALSE(isChainSpec("AES128"));

    for (const std::string &spec : chainWorkloadSpecs(16)) {
        const ChainWorkload wl = resolveChainWorkload(spec);
        EXPECT_EQ(wl.plan.check(), "") << spec;
        EXPECT_EQ(wl.expectedOutputs,
                  wl.plan.evaluate(wl.garblerBits, wl.evaluatorBits))
            << spec;
    }
    EXPECT_THROW(resolveChainWorkload("ChainBogus:8"),
                 std::invalid_argument);
    EXPECT_THROW(resolveChainWorkload("ChainMillSum"),
                 std::invalid_argument);
    EXPECT_THROW(resolveChainWorkload("ChainMillSum:0"),
                 std::invalid_argument);
    EXPECT_THROW(resolveChainWorkload("ChainProdCmp:512"),
                 std::invalid_argument); // MUL width cap
}

// ---------------------------------------------------------------------------
// The serving and session layers on top of the chain protocol:
// GcServer routes "Chain..." specs into serveChainSession, and a
// Session carrying a plan runs chained over the remote-gc backend
// while its local backends run the monolithic equivalent.

TEST(ChainServer, ServesChainSpecsBothRolesWithComponentPool)
{
    serve::PoolOptions popts;
    popts.depth = 2;
    serve::ComponentPool pool(popts);

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 2;
    opts.reports = &reports;
    opts.componentPool = &pool;
    GcServer server(opts);

    const ChainWorkload wl = resolveChainWorkload("ChainMillSum:8");
    pool.trackPlan(wl.plan);
    pool.prewarm();

    // Client evaluates: the server garbles, linking pooled components.
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        clientHello(*client_end, PeerRole::Evaluator, "ChainMillSum:8");
        const ChainResult r = runChainEvaluator(
            wl.plan, wl.evaluatorBits, *client_end, {});
        EXPECT_EQ(r.outputs, wl.expectedOutputs);
    }
    // Client garbles: the server evaluates with its sample bits.
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        clientHello(*client_end, PeerRole::Garbler, "ChainMillSum:8");
        const ChainResult r = runChainGarbler(
            wl.plan, wl.garblerBits, *client_end,
            freshComponentProvider(), {});
        EXPECT_EQ(r.outputs, wl.expectedOutputs);
    }
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 2u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.chainSessions, 2u);
    EXPECT_EQ(totals.componentsLinked,
              2 * uint64_t(wl.plan.nodes.size()));
    // Only the garbling session draws from the pool, but it links
    // every node pre-garbled (prewarmed depth covers the plan).
    EXPECT_EQ(totals.componentPoolHits, wl.plan.nodes.size());
    // All of ChainMillSum's links feed its one CMP node: one link
    // frame per session.
    EXPECT_EQ(totals.linkBytes,
              2 * uint64_t(wl.plan.numLinks() * kLinkTableBytes +
                           kLinkTableFrameHeaderBytes));

    const std::string json = reports.str();
    EXPECT_NE(json.find("\"backend\":\"chain-gc\""), std::string::npos);
    EXPECT_NE(json.find("\"chain\":{"), std::string::npos);
    EXPECT_NE(json.find("\"pooled_components\":3"), std::string::npos);
}

TEST(ChainServer, RefusesUnknownChainSpec)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    try {
        clientHello(*client_end, PeerRole::Garbler, "ChainNoSuch:8");
        FAIL() << "unknown chain spec was accepted";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("ChainNoSuch"),
                  std::string::npos);
    }
    server.drain();
    EXPECT_EQ(server.totals().sessionsFailed, 1u);
}

TEST(ChainSession, WithChainPlanRunsChainedRemoteAndMonolithicLocal)
{
    const ChainWorkload wl = resolveChainWorkload("ChainAbsDiff:8");

    Session garbler_session(Netlist{}, "");
    garbler_session.withChainPlan(wl.plan)
        .withInputs(wl.garblerBits, {})
        .withSeed(0x5EED);
    Session evaluator_session(Netlist{}, "");
    evaluator_session.withChainPlan(wl.plan)
        .withInputs({}, wl.evaluatorBits);

    // The adopted netlist is the monolithic equivalent: the software
    // backend computes the same outputs the chained run must match.
    Session local(Netlist{}, "");
    local.withChainPlan(wl.plan)
        .withInputs(wl.garblerBits, wl.evaluatorBits);
    EXPECT_EQ(local.name(), wl.plan.name);
    const RunReport local_report = local.runSoftwareGc();
    EXPECT_EQ(local_report.outputs, wl.expectedOutputs);

    auto [g_end, e_end] = LoopbackTransport::createPair();
    std::shared_ptr<Transport> g_tr = std::move(g_end);
    std::shared_ptr<Transport> e_tr = std::move(e_end);

    RunReport g_report, e_report;
    PeerThread garbler([&] {
        RemoteGcBackend backend(g_tr, Role::Garbler);
        g_report = garbler_session.run(backend);
    });
    RemoteGcBackend backend(e_tr, Role::Evaluator);
    e_report = evaluator_session.run(backend);
    garbler.join();

    EXPECT_EQ(g_report.backend, "remote-gc");
    EXPECT_EQ(g_report.outputs, wl.expectedOutputs);
    EXPECT_EQ(e_report.outputs, wl.expectedOutputs);
    ASSERT_TRUE(g_report.hasChain);
    ASSERT_TRUE(e_report.hasChain);
    EXPECT_EQ(g_report.chain.components, wl.plan.nodes.size());
    EXPECT_EQ(g_report.chain.links, wl.plan.numLinks());
    EXPECT_EQ(g_report.chain.linkBytes, e_report.chain.linkBytes);
    EXPECT_EQ(g_report.comm.totalBytes, e_report.comm.totalBytes);

    // A plan that fails check() is refused at adoption time.
    ChainPlan bad = wl.plan;
    bad.outputs[0].node = uint32_t(bad.nodes.size());
    Session rejects(Netlist{}, "");
    EXPECT_THROW(rejects.withChainPlan(bad), std::invalid_argument);
}
