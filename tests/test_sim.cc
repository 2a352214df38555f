/**
 * @file
 * Cycle-engine tests: latency floors, ILP scaling, DRAM-bound behavior,
 * traffic accounting identities, role asymmetry, forwarding ablation,
 * and mode isolation (compute vs traffic), plus golden digests that pin
 * every SimStats field, the probe's per-cycle view and shard export
 * times across the VIP fleet.
 */
#include <gtest/gtest.h>

#include <array>
#include <unordered_map>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "crypto/prg.h"
#include "shard/partition.h"
#include "workloads/vip.h"

namespace haac {
namespace {

HaacProgram
andChain(uint32_t n)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire cur = cb.andGate(a, b);
    for (uint32_t i = 1; i < n; ++i)
        cur = cb.andGate(cur, b);
    cb.addOutput(cur);
    return assemble(cb.build());
}

HaacProgram
wideAnds(uint32_t n)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(n);
    Bits b = cb.evaluatorInputs(n);
    for (uint32_t i = 0; i < n; ++i)
        cb.addOutput(cb.andGate(a[i], b[i]));
    return assemble(cb.build());
}

HaacConfig
testConfig(uint32_t ges = 4)
{
    HaacConfig cfg;
    cfg.numGes = ges;
    cfg.swwBytes = size_t(4096) * 16;
    return cfg;
}

TEST(Engine, DependentAndsPayPipelineLatency)
{
    const uint32_t n = 64;
    HaacProgram prog = andChain(n);
    HaacConfig cfg = testConfig();
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // A chain of n ANDs cannot finish faster than n * half-gate
    // latency (forwarding hides frontend but not compute).
    EXPECT_GE(s.cycles, uint64_t(n) *
                            cfg.computeLatency(/*is_and=*/true));
    EXPECT_EQ(s.instructions, n);
    EXPECT_EQ(s.andOps, n);
}

TEST(Engine, IndependentAndsPipelinePerfectly)
{
    const uint32_t n = 1024;
    HaacProgram prog = wideAnds(n);
    HaacConfig cfg = testConfig(4);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // 4 GEs issuing one AND per cycle: ~n/4 cycles plus pipeline fill.
    EXPECT_LT(s.cycles, n / 4 + 200);
    EXPECT_GE(s.cycles, n / 4);
}

TEST(Engine, MoreGesScaleWideWorkloads)
{
    HaacProgram prog = wideAnds(2048);
    SimStats s1 = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    SimStats s4 = simulate(prog, testConfig(4), SimMode::ComputeOnly);
    SimStats s16 = simulate(prog, testConfig(16), SimMode::ComputeOnly);
    EXPECT_GT(double(s1.cycles) / double(s4.cycles), 3.0);
    EXPECT_GT(double(s4.cycles) / double(s16.cycles), 2.5);
}

TEST(Engine, MoreGesDoNotHelpChains)
{
    HaacProgram prog = andChain(128);
    SimStats s1 = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    SimStats s8 = simulate(prog, testConfig(8), SimMode::ComputeOnly);
    EXPECT_NEAR(double(s1.cycles), double(s8.cycles),
                0.1 * double(s1.cycles));
}

TEST(Engine, XorChainsAreSingleCycle)
{
    // Dependent XORs resolve in one cycle via forwarding (§3.2).
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire cur = cb.xorGate(a, b);
    for (int i = 0; i < 511; ++i)
        cur = cb.xorGate(cur, b);
    cb.addOutput(cur);
    HaacProgram prog = assemble(cb.build());
    SimStats s = simulate(prog, testConfig(1), SimMode::ComputeOnly);
    EXPECT_LT(s.cycles, 512 + 64);
}

TEST(Engine, ForwardingOffSlowsDependentCode)
{
    HaacProgram prog = andChain(256);
    HaacConfig on = testConfig(2);
    HaacConfig off = on;
    off.forwarding = false;
    SimStats s_on = simulate(prog, on, SimMode::ComputeOnly);
    SimStats s_off = simulate(prog, off, SimMode::ComputeOnly);
    EXPECT_GT(s_off.cycles, s_on.cycles);
}

TEST(Engine, GarblerSlightlySlowerThanEvaluator)
{
    HaacProgram prog = andChain(512);
    HaacConfig ev = testConfig(2);
    HaacConfig gb = ev;
    gb.role = Role::Garbler;
    SimStats se = simulate(prog, ev, SimMode::ComputeOnly);
    SimStats sg = simulate(prog, gb, SimMode::ComputeOnly);
    EXPECT_GT(sg.cycles, se.cycles); // 21- vs 18-stage pipeline
    EXPECT_LT(double(sg.cycles) / double(se.cycles), 1.25);
}

TEST(Engine, TrafficAccountingIdentity)
{
    HaacProgram prog = wideAnds(512);
    HaacConfig cfg = testConfig(4);
    applyEsw(prog, cfg.swwWires());
    StreamSet set = buildStreams(prog, cfg);
    SimStats s = runSimulation(prog, cfg, set, SimMode::Combined);

    EXPECT_EQ(s.instrBytes,
              prog.instrs.size() *
                  encodedInstrBytes(cfg.swwWires()));
    EXPECT_EQ(s.tableBytes, uint64_t(prog.numAnd()) * kTableBytes);
    EXPECT_EQ(s.oorDataBytes, set.totalOor * kLabelBytes);
    EXPECT_EQ(s.oorAddrBytes, set.totalOor * 4);
    EXPECT_EQ(s.totalTrafficBytes(),
              s.instrBytes + s.tableBytes + s.oorAddrBytes +
                  s.oorDataBytes + s.liveWriteBytes +
                  s.inputLoadBytes);
}

TEST(Engine, CombinedIsAtLeastEachIsolatedMode)
{
    HaacProgram base = wideAnds(4096);
    HaacConfig cfg = testConfig(8);
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(base, opts);
    StreamSet set = buildStreams(prog, cfg);
    SimStats comb = runSimulation(prog, cfg, set, SimMode::Combined);
    SimStats comp = runSimulation(prog, cfg, set, SimMode::ComputeOnly);
    SimStats traf = runSimulation(prog, cfg, set, SimMode::TrafficOnly);
    // Decoupled design: combined ~ max(compute, traffic), and never
    // better than either in isolation (allowing warmup slack).
    EXPECT_GE(comb.cycles + 8, comp.cycles);
    EXPECT_GE(comb.cycles + 8, traf.cycles / 2);
}

TEST(Engine, Ddr4BecomesBandwidthBound)
{
    // All-live wide ANDs: tables + live writes dominate; HBM2 must
    // beat DDR4 clearly once GEs outrun DDR4 bandwidth.
    HaacProgram prog = wideAnds(8192);
    clearEsw(prog);
    HaacConfig ddr = testConfig(16);
    HaacConfig hbm = ddr;
    hbm.dram = DramKind::Hbm2;
    SimStats sd = simulate(prog, ddr, SimMode::Combined);
    SimStats sh = simulate(prog, hbm, SimMode::Combined);
    EXPECT_GT(double(sd.cycles) / double(sh.cycles), 2.0);

    // DDR4 time must be at least total bytes / bandwidth.
    const double min_cycles =
        double(sd.totalTrafficBytes()) / dramBytesPerCycle(ddr.dram);
    EXPECT_GE(double(sd.cycles), min_cycles * 0.95);
}

TEST(Engine, EswReducesTrafficAndTime)
{
    // A long program on a small SWW where most wires are spent.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(64);
    Bits b = cb.evaluatorInputs(64);
    Bits acc = a;
    for (int r = 0; r < 200; ++r)
        acc = addBits(cb, acc, b);
    cb.addOutputs(acc);
    HaacProgram base = assemble(cb.build());

    HaacConfig cfg = testConfig(4);
    HaacProgram with_esw = base;
    applyEsw(with_esw, cfg.swwWires());
    HaacProgram no_esw = base;
    clearEsw(no_esw);

    SimStats s_esw = simulate(with_esw, cfg, SimMode::Combined);
    SimStats s_all = simulate(no_esw, cfg, SimMode::Combined);
    EXPECT_LT(s_esw.liveWriteBytes, s_all.liveWriteBytes / 4);
    EXPECT_LE(s_esw.cycles, s_all.cycles);
}

TEST(Engine, StallCountersArePopulated)
{
    HaacProgram prog = andChain(64);
    SimStats s = simulate(prog, testConfig(2), SimMode::ComputeOnly);
    EXPECT_GT(s.stallOperand, 0u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    HaacProgram prog = wideAnds(1024);
    HaacConfig cfg = testConfig(4);
    StreamSet set = buildStreams(prog, cfg);
    SimStats a = runSimulation(prog, cfg, set, SimMode::Combined);
    SimStats b = runSimulation(prog, cfg, set, SimMode::Combined);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.totalTrafficBytes(), b.totalTrafficBytes());
}

TEST(Engine, DramLatencyDelaysStartup)
{
    HaacProgram prog = wideAnds(256);
    HaacConfig fast = testConfig(4);
    fast.dramLatency = 10;
    HaacConfig slow = fast;
    slow.dramLatency = 500;
    SimStats sf = simulate(prog, fast, SimMode::Combined);
    SimStats ss = simulate(prog, slow, SimMode::Combined);
    // The 490-cycle latency gap shows up mostly as startup delay; some
    // of it overlaps with the drain, so require at least half of it.
    EXPECT_GE(ss.cycles, sf.cycles + 245);
}

TEST(Engine, PerGeStatsBalanceOnWideWork)
{
    HaacProgram prog = wideAnds(2048);
    HaacConfig cfg = testConfig(8);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    ASSERT_EQ(s.issuedPerGe.size(), 8u);
    uint64_t sum = 0;
    for (uint64_t v : s.issuedPerGe)
        sum += v;
    EXPECT_EQ(sum, s.instructions);
    // Independent ANDs spread nearly evenly across GEs.
    EXPECT_LT(s.loadImbalance(), 1.2);
    EXPECT_GT(s.geUtilization(), 0.5);
}

TEST(Engine, ChainsShowLowUtilization)
{
    HaacProgram prog = andChain(128);
    SimStats s = simulate(prog, testConfig(8), SimMode::ComputeOnly);
    // One dependent chain across 8 GEs: issue slots are mostly idle.
    EXPECT_LT(s.geUtilization(), 0.05);
}

TEST(Engine, SmallerQueuesStallMore)
{
    HaacProgram prog = wideAnds(4096);
    HaacConfig roomy = testConfig(8);
    roomy.queueSramBytes = 64 * 1024;
    HaacConfig tight = roomy;
    tight.queueSramBytes = 2 * 1024; // ~128 B per queue per GE
    SimStats sr = simulate(prog, roomy, SimMode::Combined);
    SimStats st = simulate(prog, tight, SimMode::Combined);
    // Tight queues cannot cover the DRAM latency, so prefetching
    // degrades and the run slows down. (Stall *attribution* shifts
    // between categories, so only the end-to-end time is monotone.)
    EXPECT_GE(st.cycles, sr.cycles);
}

TEST(Engine, EmptyProgramFinishesImmediately)
{
    HaacProgram prog;
    prog.numInputs = 2;
    HaacConfig cfg = testConfig(4);
    SimStats s = simulate(prog, cfg, SimMode::Combined);
    EXPECT_EQ(s.instructions, 0u);
    EXPECT_LT(s.cycles, uint64_t(cfg.dramLatency) + 16);
}

TEST(Engine, SingleInstructionLatency)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    HaacProgram prog = assemble(cb.build());
    HaacConfig cfg = testConfig(1);
    SimStats s = simulate(prog, cfg, SimMode::ComputeOnly);
    // frontend(5) + half-gate(18) + writeback(2).
    EXPECT_EQ(s.cycles,
              uint64_t(cfg.frontendDepth()) +
                  cfg.computeLatency(true) + cfg.writebackStages);
}

TEST(Engine, OutputsThatAreInputsAreLegal)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(a);            // passthrough output
    cb.addOutput(cb.xorGate(a, b));
    HaacProgram prog = assemble(cb.build());
    EXPECT_EQ(prog.check(), "");
    SimStats s = simulate(prog, testConfig(2));
    EXPECT_EQ(s.instructions, prog.instrs.size());
}

TEST(Engine, WriteBufferBackpressureCounted)
{
    // Garbler writing tables through a tiny write buffer on DDR4.
    HaacProgram prog = wideAnds(4096);
    clearEsw(prog);
    HaacConfig cfg = testConfig(16);
    cfg.role = Role::Garbler;
    cfg.writeBufferBytes = 256;
    SimStats s = simulate(prog, cfg, SimMode::Combined);
    EXPECT_GT(s.stallWriteBuffer, 0u);

    HaacConfig roomy = cfg;
    roomy.writeBufferBytes = 1 << 20;
    SimStats s2 = simulate(prog, roomy, SimMode::Combined);
    EXPECT_LE(s2.stallWriteBuffer, s.stallWriteBuffer);
    EXPECT_LE(s2.cycles, s.cycles);
}

TEST(Engine, BankContentionAppearsWithFewBanks)
{
    // Scatter reads across the pool so concurrent GEs collide on the
    // same banks when few banks exist (wideAnds' strided accesses
    // would spread perfectly and show no contention).
    Prg prg(77);
    CircuitBuilder cb;
    Bits pool;
    for (Wire w : cb.garblerInputs(64))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(64))
        pool.push_back(w);
    for (int i = 0; i < 8192; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        pool.push_back(cb.andGate(a, b));
    }
    cb.addOutput(pool.back());
    HaacProgram prog = assemble(cb.build());

    HaacConfig many = testConfig(8);
    many.banksPerGe = 4;
    HaacConfig few = many;
    few.banksPerGe = 1;
    SimStats sm = simulate(prog, many, SimMode::ComputeOnly);
    SimStats sf = simulate(prog, few, SimMode::ComputeOnly);
    EXPECT_GT(sf.stallBank, sm.stallBank);
}


// ---------------------------------------------------------------------
// Goldens. The engine may skip work whose outcome is already known
// (sleeping GEs, idle DRAM lanes), but every observable number must
// stay bit-identical: each digest below covers every SimStats field,
// including the six stall causes, the SWW/forwarding activity counts
// and the per-GE issue split, over the eight VIP workloads. The
// programs come from the compiler and the workload builders, so a
// change there moves these digests too: re-record them on the commit
// before such a change, never alongside an engine change.
// ---------------------------------------------------------------------

/** FNV-1a over little-endian 64-bit words. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

void
addStats(Fnv &f, const SimStats &s)
{
    for (uint64_t v :
         {s.cycles, s.instructions, s.andOps, s.xorOps, s.notOps,
          s.instrBytes, s.tableBytes, s.oorAddrBytes, s.oorDataBytes,
          s.liveWriteBytes, s.inputLoadBytes, s.liveWires, s.oorReads,
          s.stallOperand, s.stallInstrQueue, s.stallTableQueue,
          s.stallOorwQueue, s.stallBank, s.stallWriteBuffer, s.swwReads,
          s.swwWrites, s.forwardHits})
        f.add(v);
    f.add(s.issuedPerGe.size());
    for (uint64_t v : s.issuedPerGe)
        f.add(v);
}

/** A VIP workload compiled as the fleet runs it (full reorder + ESW). */
HaacProgram
compiledVip(const std::string &name)
{
    CompileOptions opts;
    opts.swwWires = HaacConfig{}.swwWires();
    return compileProgram(assemble(vipWorkload(name, false).netlist),
                          opts);
}

struct GoldenConfig
{
    const char *name;
    HaacConfig cfg;
    /** Digest per mode: Combined, ComputeOnly, TrafficOnly. */
    uint64_t golden[3];
};

std::vector<GoldenConfig>
goldenConfigs()
{
    HaacConfig base;
    HaacConfig no_fwd = base;
    no_fwd.forwarding = false;
    HaacConfig garbler = base;
    garbler.role = Role::Garbler;
    HaacConfig ges4 = base;
    ges4.numGes = 4;
    HaacConfig slow = base;
    slow.dramBandwidthScale = 0.25;
    return {
        {"default", base,
         {0xbf1ded5205e039eeull, 0x03f34b6b793d2d33ull,
          0x2dfed65d5383a3e5ull}},
        {"forwarding=false", no_fwd,
         {0x0e1f84f6ffc8ef9full, 0xf3ac22da3b47fe34ull,
          0xd98fe518be4ddc91ull}},
        {"garbler", garbler,
         {0x381cd5e26764f0cdull, 0xa20d1fb40fd49fccull,
          0x52f564cbae25a4d5ull}},
        {"numGes=4", ges4,
         {0x4f6ca3f03da079a8ull, 0xee326f27ea47ba81ull,
          0xd4644004850ad40aull}},
        {"dramBandwidthScale=0.25", slow,
         {0xc4efeae295d17cf0ull, 0x03f34b6b793d2d33ull,
          0xa31746e8a4508de6ull}},
    };
}

TEST(EngineGolden, SimStatsDigestAcrossVipFleet)
{
    const SimMode modes[3] = {SimMode::Combined, SimMode::ComputeOnly,
                              SimMode::TrafficOnly};
    const char *const mode_names[3] = {"Combined", "ComputeOnly",
                                       "TrafficOnly"};
    const std::vector<GoldenConfig> configs = goldenConfigs();
    std::vector<std::array<Fnv, 3>> digest(configs.size());
    for (const std::string &name : vipNames()) {
        const HaacProgram prog = compiledVip(name);
        for (size_t c = 0; c < configs.size(); ++c) {
            const StreamSet streams = buildStreams(prog, configs[c].cfg);
            for (int m = 0; m < 3; ++m)
                addStats(digest[c][m], runSimulation(prog, configs[c].cfg,
                                                     streams, modes[m]));
        }
    }
    for (size_t c = 0; c < configs.size(); ++c)
        for (int m = 0; m < 3; ++m)
            EXPECT_EQ(digest[c][m].h, configs[c].golden[m])
                << configs[c].name << " / " << mode_names[m]
                << ": 0x" << std::hex << digest[c][m].h;
}

TEST(EngineGolden, ShardExportReadyDigest)
{
    // Two coordinator-style rounds per shard: imports ready at 0, then
    // at the producer's export time plus the DRAM latency.
    const HaacConfig cfg;
    const uint64_t golden[2] = {0xb34f1ce90ed0a1b3ull,
                                0x5cd16fca3cc4d589ull}; // M = 2, 4
    const uint32_t shard_counts[2] = {2, 4};
    for (int k = 0; k < 2; ++k) {
        Fnv f;
        for (const std::string &name : vipNames()) {
            HaacProgram prog = compiledVip(name);
            const StreamSet set = buildStreams(prog, cfg);
            const shard::ShardPlan plan =
                shard::partitionStreams(prog, set, shard_counts[k]);
            shard::markCrossShardLive(prog, plan);
            const uint32_t m = plan.shardCount();

            std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>>
                source;
            for (uint32_t s = 0; s < m; ++s)
                for (uint32_t i = 0; i < plan.parts[s].exports.size(); ++i)
                    source[plan.parts[s].exports[i]] = {s, i};

            std::vector<ShardSimResult> last(m);
            for (int round = 0; round < 2; ++round) {
                std::vector<ShardSimResult> next(m);
                for (uint32_t s = 0; s < m; ++s) {
                    const shard::ShardPart &part = plan.parts[s];
                    HaacConfig sub = cfg;
                    sub.numGes = uint32_t(part.geIds.size());
                    sub.queueSramBytes =
                        cfg.queueSramBytes * sub.numGes / cfg.numGes;
                    sub.writeBufferBytes =
                        cfg.writeBufferBytes * sub.numGes / cfg.numGes;
                    RemoteWireEnv env;
                    env.addrs = part.imports;
                    for (uint32_t addr : part.imports) {
                        uint64_t t = 0;
                        if (round > 0) {
                            const auto &[p, idx] = source.at(addr);
                            t = last[p].exportReady[idx] + cfg.dramLatency;
                        }
                        env.readyCycles.push_back(t);
                    }
                    next[s] = runShardSimulation(prog, sub, part.streams,
                                                 SimMode::Combined, env,
                                                 part.exports);
                    addStats(f, next[s].stats);
                    f.add(next[s].exportReady.size());
                    for (uint64_t t : next[s].exportReady)
                        f.add(t);
                }
                last = std::move(next);
            }
        }
        EXPECT_EQ(f.h, golden[k])
            << "M = " << shard_counts[k] << ": 0x" << std::hex << f.h;
    }
}

/** Digests everything a SimProbe is shown, cycle by cycle. */
class RecordingProbe : public SimProbe
{
  public:
    explicit RecordingProbe(uint64_t stop_at = ~uint64_t(0))
        : stopAt_(stop_at)
    {}

    void
    onIssue(uint64_t cycle, uint32_t ge, uint32_t instrIdx,
            const HaacInstruction &, uint32_t outAddr) override
    {
        for (uint64_t v : {cycle, uint64_t(ge), uint64_t(instrIdx),
                           uint64_t(outAddr)})
            fnv.add(v);
        ++issues;
    }

    bool
    onCycle(const SimProbeView &view) override
    {
        const SimStats &s = *view.stats;
        for (uint64_t v :
             {view.cycle, s.stallOperand, s.stallInstrQueue,
              s.stallTableQueue, s.stallOorwQueue, s.stallBank,
              s.stallWriteBuffer, view.pendingWriteBytes})
            fnv.add(v);
        for (const GeQueueView &q : view.ges)
            for (uint64_t v :
                 {q.instrReady, q.instrCapacity, q.instrConsumed,
                  q.instrTotal, q.tableReady, q.tableCapacity,
                  q.tableConsumed, q.tableTotal, q.oorReady,
                  q.oorCapacity, q.oorConsumed, q.oorTotal, q.streamPos,
                  q.streamLen, uint64_t(q.nextInstr)})
                fnv.add(v);
        for (uint8_t b : view.bankAccesses)
            fnv.add(b);
        ++cycles;
        return view.cycle < stopAt_;
    }

    Fnv fnv;
    uint64_t issues = 0, cycles = 0;

  private:
    uint64_t stopAt_;
};

TEST(EngineGolden, ProbeSeesEveryCycle)
{
    struct Case
    {
        const char *workload;
        uint64_t stopAt;
        uint64_t golden;
    };
    const Case cases[] = {
        {"Hamm", ~uint64_t(0), 0xce0c3048e300085aull},
        {"ReLU", ~uint64_t(0), 0xf909876ae3bc6b63ull},
        {"Hamm", 5000, 0x146ee7567d9404ffull},
    };
    const HaacConfig cfg;
    for (const Case &c : cases) {
        const HaacProgram prog = compiledVip(c.workload);
        const StreamSet streams = buildStreams(prog, cfg);
        RecordingProbe probe(c.stopAt);
        const SimStats s =
            runSimulation(prog, cfg, streams, SimMode::Combined, &probe);
        if (c.stopAt == ~uint64_t(0)) {
            // Every cycle is shown once and every issue is reported.
            Fnv probed, plain;
            addStats(probed, s);
            addStats(plain, runSimulation(prog, cfg, streams));
            EXPECT_EQ(probed.h, plain.h);
            EXPECT_EQ(probe.issues, s.instructions);
        } else {
            EXPECT_EQ(probe.cycles, c.stopAt + 1);
            EXPECT_LT(s.instructions, prog.instrs.size());
        }
        Fnv f = probe.fnv;
        addStats(f, s);
        EXPECT_EQ(f.h, c.golden)
            << c.workload << " stop " << c.stopAt << ": 0x" << std::hex
            << f.h;
    }
}

} // namespace
} // namespace haac
