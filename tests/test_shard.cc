/**
 * @file
 * The sharding layer: partitioner invariants, the shard wire protocol,
 * M=1 bit-parity with the plain "haac-sim" backend across the whole
 * VIP suite, M>1 output parity on dependency-heavy circuits, and the
 * remote-worker path through a real `haac_server --shard-worker`
 * process (skipped where the sandbox forbids sockets or the binary's
 * path was not exported).
 */
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>

#include "api/session.h"
#include "circuit/builder.h"
#include "core/sim/engine.h"
#include "net/loopback.h"
#include "net/server.h"
#include "net/tcp.h"
#include "shard/backend.h"
#include "shard/coordinator.h"
#include "shard/partition.h"
#include "shard/proto.h"
#include "shard/worker.h"
#include "workloads/vip.h"

namespace haac {
namespace {

using shard::partitionStreams;
using shard::ShardPlan;

/** Compile a workload exactly the way the sim backends do. */
HaacProgram
compiledFor(const Workload &wl, const HaacConfig &cfg)
{
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();
    return compileProgram(assemble(wl.netlist), copts, nullptr);
}

void
expectSameStats(const SimStats &a, const SimStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.andOps, b.andOps);
    EXPECT_EQ(a.xorOps, b.xorOps);
    EXPECT_EQ(a.notOps, b.notOps);
    EXPECT_EQ(a.instrBytes, b.instrBytes);
    EXPECT_EQ(a.tableBytes, b.tableBytes);
    EXPECT_EQ(a.oorAddrBytes, b.oorAddrBytes);
    EXPECT_EQ(a.oorDataBytes, b.oorDataBytes);
    EXPECT_EQ(a.liveWriteBytes, b.liveWriteBytes);
    EXPECT_EQ(a.inputLoadBytes, b.inputLoadBytes);
    EXPECT_EQ(a.liveWires, b.liveWires);
    EXPECT_EQ(a.oorReads, b.oorReads);
    EXPECT_EQ(a.stallOperand, b.stallOperand);
    EXPECT_EQ(a.stallInstrQueue, b.stallInstrQueue);
    EXPECT_EQ(a.stallTableQueue, b.stallTableQueue);
    EXPECT_EQ(a.stallOorwQueue, b.stallOorwQueue);
    EXPECT_EQ(a.stallBank, b.stallBank);
    EXPECT_EQ(a.stallWriteBuffer, b.stallWriteBuffer);
    EXPECT_EQ(a.swwReads, b.swwReads);
    EXPECT_EQ(a.swwWrites, b.swwWrites);
    EXPECT_EQ(a.forwardHits, b.forwardHits);
    EXPECT_EQ(a.issuedPerGe, b.issuedPerGe);
}

// ---------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------

TEST(Partition, CoversEveryGeExactlyOnceAndBalances)
{
    const HaacConfig cfg;
    const Workload wl = vipWorkload("Hamm", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    const StreamSet set = recordSchedule(prog, cfg);

    const ShardPlan plan = partitionStreams(prog, set, 4);
    ASSERT_EQ(plan.shardCount(), 4u);

    std::vector<uint32_t> seen;
    uint64_t instrs = 0;
    for (const shard::ShardPart &part : plan.parts) {
        EXPECT_FALSE(part.geIds.empty());
        EXPECT_TRUE(std::is_sorted(part.geIds.begin(),
                                   part.geIds.end()));
        EXPECT_EQ(part.geIds.size(), part.streams.ge.size());
        seen.insert(seen.end(), part.geIds.begin(), part.geIds.end());
        instrs += part.instructions;
    }
    std::sort(seen.begin(), seen.end());
    std::vector<uint32_t> all(cfg.numGes);
    for (uint32_t g = 0; g < cfg.numGes; ++g)
        all[g] = g;
    EXPECT_EQ(seen, all);
    EXPECT_EQ(instrs, prog.instrs.size());

    // LPT should keep the heaviest shard well under the whole program.
    uint64_t heaviest = 0;
    for (const shard::ShardPart &part : plan.parts)
        heaviest = std::max(heaviest, part.instructions);
    EXPECT_LT(heaviest, prog.instrs.size());
}

TEST(Partition, ImportsAndExportsAgreeAcrossShards)
{
    const HaacConfig cfg;
    const Workload wl = vipWorkload("BubbSt", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    const StreamSet set = recordSchedule(prog, cfg);
    const ShardPlan plan = partitionStreams(prog, set, 4);

    // Every import names a wire some other shard exports, no shard
    // imports a wire it produces, and cross totals line up.
    uint64_t imports_total = 0;
    for (uint32_t s = 0; s < plan.shardCount(); ++s) {
        const shard::ShardPart &part = plan.parts[s];
        imports_total += part.imports.size();
        for (uint32_t addr : part.imports) {
            ASSERT_GT(addr, prog.numInputs);
            const uint8_t p =
                plan.shardOfInstr[addr - prog.numInputs - 1];
            EXPECT_NE(p, s);
            const auto &exp = plan.parts[p].exports;
            EXPECT_TRUE(std::binary_search(exp.begin(), exp.end(),
                                           addr));
        }
    }
    EXPECT_EQ(imports_total, plan.crossWires);
    EXPECT_GT(plan.crossWires, 0u);
}

TEST(Partition, MoreShardsThanGesClampsToOnePerGe)
{
    const HaacConfig cfg;
    const Workload wl = vipWorkload("Hamm", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    const StreamSet set = recordSchedule(prog, cfg);

    const ShardPlan plan = partitionStreams(prog, set, 64);
    EXPECT_EQ(plan.requested, 64u);
    ASSERT_EQ(plan.shardCount(), cfg.numGes);
    for (const shard::ShardPart &part : plan.parts)
        EXPECT_EQ(part.geIds.size(), 1u);
}

TEST(Partition, SingleShardIsTheIdentity)
{
    const HaacConfig cfg;
    const Workload wl = vipWorkload("DotProd", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    const StreamSet set = recordSchedule(prog, cfg);

    const ShardPlan plan = partitionStreams(prog, set, 1);
    ASSERT_EQ(plan.shardCount(), 1u);
    const shard::ShardPart &part = plan.parts[0];
    EXPECT_TRUE(part.imports.empty());
    EXPECT_TRUE(part.exports.empty());
    ASSERT_EQ(part.streams.ge.size(), set.ge.size());
    for (size_t g = 0; g < set.ge.size(); ++g) {
        EXPECT_EQ(part.streams.ge[g].instrIdx, set.ge[g].instrIdx);
        EXPECT_EQ(part.streams.ge[g].oorAddrs, set.ge[g].oorAddrs);
        EXPECT_EQ(part.streams.ge[g].tableCount, set.ge[g].tableCount);
    }

    // No cross wires means no live-bit rewrites.
    HaacProgram copy = prog;
    EXPECT_EQ(shard::markCrossShardLive(copy, plan), 0u);
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(ShardProto, JobSurvivesTheWire)
{
    const HaacConfig cfg;
    const Workload wl = vipWorkload("Hamm", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    const StreamSet set = recordSchedule(prog, cfg);
    const ShardPlan plan = partitionStreams(prog, set, 2);

    shard::ShardJob job;
    job.config = cfg;
    job.config.numGes = uint32_t(plan.parts[1].geIds.size());
    job.mode = SimMode::TrafficOnly;
    job.program = prog;
    job.streams = plan.parts[1].streams;
    job.imports = plan.parts[1].imports;
    job.exports = plan.parts[1].exports;
    job.valueAddrs = plan.parts[1].exports;
    job.importValues.assign(job.imports.size(), true);
    job.inputValues.assign(prog.numInputs, false);
    job.wantValues = true;

    const shard::ShardJob back =
        shard::decodeJob(shard::encodeJob(job));
    EXPECT_EQ(back.config.numGes, job.config.numGes);
    EXPECT_EQ(back.config.queueSramBytes, cfg.queueSramBytes);
    EXPECT_EQ(back.config.dramBandwidthScale,
              cfg.dramBandwidthScale);
    EXPECT_EQ(back.mode, SimMode::TrafficOnly);
    EXPECT_EQ(back.program.instrs.size(), prog.instrs.size());
    EXPECT_EQ(back.program.outputs, prog.outputs);
    ASSERT_EQ(back.streams.ge.size(), job.streams.ge.size());
    for (size_t g = 0; g < job.streams.ge.size(); ++g) {
        EXPECT_EQ(back.streams.ge[g].instrIdx,
                  job.streams.ge[g].instrIdx);
        EXPECT_EQ(back.streams.ge[g].oorAddrs,
                  job.streams.ge[g].oorAddrs);
    }
    EXPECT_EQ(back.imports, job.imports);
    EXPECT_EQ(back.exports, job.exports);
    EXPECT_EQ(back.importValues, job.importValues);
    EXPECT_EQ(back.wantValues, true);

    // Instruction payloads are preserved field by field.
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        EXPECT_EQ(back.program.instrs[k].op, prog.instrs[k].op);
        EXPECT_EQ(back.program.instrs[k].a, prog.instrs[k].a);
        EXPECT_EQ(back.program.instrs[k].b, prog.instrs[k].b);
        EXPECT_EQ(back.program.instrs[k].live, prog.instrs[k].live);
        EXPECT_EQ(back.program.instrs[k].tweak, prog.instrs[k].tweak);
    }
}

TEST(ShardProto, TruncatedFrameThrowsNotReadsGarbage)
{
    std::vector<uint8_t> frame = shard::encodeRound({1, 2, 3});
    frame.resize(frame.size() - 4);
    EXPECT_THROW(shard::decodeRound(frame), NetError);
    EXPECT_THROW(shard::frameTag({}), NetError);
    EXPECT_THROW(shard::frameTag({0x77}), NetError);
}

/**
 * Serve @p job for one Round (every import ready at cycle 0) and a Quit
 * over a loopback pair: "accepted", or the worker's NetError message.
 * A worker still running after 20 s ends the test binary.
 */
std::string
serveOneRound(const shard::ShardJob &job)
{
    auto [coordinator, worker] = LoopbackTransport::createPair();
    coordinator->sendFrame(shard::encodeJob(job));
    coordinator->sendFrame(
        shard::encodeRound(std::vector<uint64_t>(job.imports.size(), 0)));
    coordinator->sendFrame(shard::encodeQuit());
    std::packaged_task<std::string()> task([&worker] {
        try {
            shard::runShardWorkerLoop(*worker);
        } catch (const NetError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    });
    std::future<std::string> done = task.get_future();
    std::thread runner(std::move(task));
    if (done.wait_for(std::chrono::seconds(20)) !=
        std::future_status::ready) {
        // Nothing can stop a hung engine loop from outside.
        std::fprintf(stderr, "shard worker still running after 20 s\n");
        std::_Exit(1);
    }
    runner.join();
    return done.get();
}

// A Job whose config the engine would divide by, or wait on forever,
// must be refused with a typed error before any Round runs it.
void
expectJobRefused(void (*corrupt)(shard::ShardJob &))
{
    CircuitBuilder cb;
    const Wire a = cb.garblerInput();
    const Wire b = cb.evaluatorInput();
    cb.addOutput(cb.xorGate(cb.andGate(a, b), a));
    const Netlist nl = cb.build();
    const HaacConfig cfg;
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();
    const HaacProgram prog = compileProgram(assemble(nl), copts, nullptr);
    const StreamSet set = recordSchedule(prog, cfg);

    shard::ShardJob job;
    job.config = cfg;
    job.program = prog;
    job.streams = partitionStreams(prog, set, 1).parts[0].streams;
    job.inputValues.assign(prog.numInputs, false);
    corrupt(job);
    EXPECT_EQ(serveOneRound(job).rfind("shard job: ", 0), 0u);
}

TEST(ShardWorker, RefusesZeroBanksPerGe)
{
    expectJobRefused([](shard::ShardJob &j) { j.config.banksPerGe = 0; });
}

TEST(ShardWorker, RefusesBankCountOverflow)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.banksPerGe = 1u << 31; });
}

TEST(ShardWorker, RefusesZeroSww)
{
    expectJobRefused([](shard::ShardJob &j) { j.config.swwBytes = 0; });
}

TEST(ShardWorker, RefusesZeroGesWithEmptyStreams)
{
    expectJobRefused([](shard::ShardJob &j) {
        j.config.numGes = 0;
        j.streams.ge.clear();
    });
}

TEST(ShardWorker, RefusesZeroWriteBuffer)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.writeBufferBytes = 0; });
}

TEST(ShardWorker, RefusesZeroBandwidthScale)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.dramBandwidthScale = 0; });
}

TEST(ShardWorker, RefusesNanBandwidthScale)
{
    expectJobRefused([](shard::ShardJob &j) {
        j.config.dramBandwidthScale = std::nan("");
    });
}

// Budget accrues one modelled cycle at a time, so host time per grant
// grows as 1/scale: a share of 1e-12 would run ~10^12 cycles.
TEST(ShardWorker, RefusesBandwidthScaleBelowTheFloor)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.dramBandwidthScale = 1e-12; });
}

// The engine keeps ready cycles in 32 bits: a latency near 2^32 wraps
// t + dramLatency and marks preloaded inputs ready before they arrive.
TEST(ShardWorker, RefusesDramLatencyPastTheBound)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.dramLatency = ~0u; });
    expectJobRefused(
        [](shard::ShardJob &j) { j.config.dramLatency = (1u << 16) + 1; });
    HaacConfig cfg;
    cfg.dramLatency = 1u << 16;
    EXPECT_EQ(cfg.check(), "");
}

TEST(HaacConfig, BandwidthScaleFloor)
{
    HaacConfig cfg;
    cfg.dramBandwidthScale = 1e-12;
    EXPECT_NE(cfg.check(), "");
    cfg.dramBandwidthScale = HaacConfig::kMinDramBandwidthScale / 2;
    EXPECT_NE(cfg.check(), "");
    cfg.dramBandwidthScale = HaacConfig::kMinDramBandwidthScale;
    EXPECT_EQ(cfg.check(), "");
    cfg.dramBandwidthScale = 1.0 / 8;
    EXPECT_EQ(cfg.check(), "");
}

TEST(ShardParity, RefusesASplitBelowTheBandwidthFloor)
{
    // The coordinator's 1/M split must never build a Job its workers
    // refuse: at a 1/1024 share, two shards would get 1/2048 each.
    CircuitBuilder cb;
    const Wire a = cb.garblerInput();
    const Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    const Netlist nl = cb.build();
    HaacConfig cfg;
    cfg.dramBandwidthScale = HaacConfig::kMinDramBandwidthScale;
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();
    const HaacProgram prog = compileProgram(assemble(nl), copts, nullptr);
    shard::ShardOptions opts;
    opts.shards = 2;
    EXPECT_THROW(shard::runSharded(prog, cfg, SimMode::Combined, opts, {},
                                   {}, false),
                 std::invalid_argument);
}

// A Job that names wires or instructions its program does not have
// must be refused before the value pass or the engine indexes with it.
TEST(ShardWorker, RefusesValueAddressOutsideTheProgram)
{
    expectJobRefused([](shard::ShardJob &j) {
        j.wantValues = true;
        j.valueAddrs = {4000000000u};
    });
}

TEST(ShardWorker, RefusesImportOutsideTheProgram)
{
    expectJobRefused([](shard::ShardJob &j) {
        j.imports = {4000000000u};
        j.importValues = {true};
        j.wantValues = true;
    });
}

TEST(ShardWorker, RefusesExportOutsideTheProgram)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.exports = {4000000000u}; });
}

TEST(ShardWorker, RefusesStreamIndexOutsideTheProgram)
{
    expectJobRefused([](shard::ShardJob &j) {
        j.streams.ge[0].instrIdx.back() = 4000000000u;
    });
}

TEST(ShardWorker, RefusesProgramThatFailsCheck)
{
    expectJobRefused(
        [](shard::ShardJob &j) { j.program.instrs[0].a = 4000000000u; });
}

TEST(ShardWorker, RefusesProgramWhoseAddressSpaceWraps)
{
    // numAddrs() wraps to 0, so no address check alone can catch it.
    expectJobRefused([](shard::ShardJob &j) {
        j.program = HaacProgram{};
        j.program.numInputs = UINT32_MAX;
        for (GeStreams &ge : j.streams.ge)
            ge = GeStreams{};
        j.inputValues.clear();
    });
}

TEST(ShardWorker, RefusesMoreAddressesThanAWorkerSimulates)
{
    // The engine keeps 8 B per address: 2^25 + 1 of them is 256 MiB
    // asked for by a frame of a few hundred bytes.
    expectJobRefused([](shard::ShardJob &j) {
        j.program = HaacProgram{};
        j.program.numInputs = uint32_t(1) << 25;
        for (GeStreams &ge : j.streams.ge)
            ge = GeStreams{};
        j.inputValues.clear();
    });
}

TEST(ShardWorker, RoundMissingImportsFailsInsteadOfHanging)
{
    // A 400-gate AND/XOR chain split over two shards: shard 1 reads
    // wires shard 0 produces. Without its imports no stream, input or
    // import produces them, so the Round can never finish.
    CircuitBuilder cb;
    const Wire a = cb.garblerInput();
    const Wire b = cb.evaluatorInput();
    Wire cur = a;
    for (int i = 0; i < 400; ++i)
        cur = i % 2 == 0 ? cb.andGate(cur, b) : cb.xorGate(cur, b);
    cb.addOutput(cur);
    const HaacConfig cfg;
    CompileOptions copts;
    copts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(cb.build()), copts, nullptr);
    const ShardPlan plan =
        partitionStreams(prog, recordSchedule(prog, cfg), 2);
    shard::markCrossShardLive(prog, plan);
    const shard::ShardPart &part = plan.parts[1];
    ASSERT_FALSE(part.imports.empty());

    shard::ShardJob job;
    job.config = cfg;
    job.config.numGes = uint32_t(part.geIds.size());
    job.program = prog;
    job.streams = part.streams;
    job.imports = part.imports;
    job.exports = part.exports;
    EXPECT_EQ(serveOneRound(job), "accepted");

    job.imports.clear();
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(serveOneRound(job).rfind("shard round: ", 0), 0u);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
}

// ---------------------------------------------------------------------
// M=1 bit-parity with "haac-sim" (the acceptance gate)
// ---------------------------------------------------------------------

TEST(ShardParity, OneShardMatchesHaacSimOnEveryVipWorkload)
{
    for (const std::string &name : vipNames()) {
        SCOPED_TRACE(name);
        Session session(vipWorkload(name, false));
        const RunReport plain = session.run("haac-sim");
        session.withShards(1);
        const RunReport sharded = session.run("haac-sim-sharded");

        ASSERT_TRUE(sharded.hasSim);
        expectSameStats(sharded.sim, plain.sim);
        EXPECT_EQ(sharded.compile.instructions,
                  plain.compile.instructions);
        EXPECT_EQ(sharded.compile.liveWires, plain.compile.liveWires);
        EXPECT_EQ(sharded.compile.oorReads, plain.compile.oorReads);

        ASSERT_TRUE(plain.hasOutputs);
        ASSERT_TRUE(sharded.hasOutputs);
        EXPECT_EQ(sharded.outputs, plain.outputs);

        ASSERT_TRUE(sharded.hasEnergy);
        EXPECT_EQ(sharded.energy.halfGateJ, plain.energy.halfGateJ);
        EXPECT_EQ(sharded.energy.crossbarJ, plain.energy.crossbarJ);
        EXPECT_EQ(sharded.energy.sramJ, plain.energy.sramJ);
        EXPECT_EQ(sharded.energy.othersJ, plain.energy.othersJ);
        EXPECT_EQ(sharded.energy.hbm2PhyJ, plain.energy.hbm2PhyJ);

        ASSERT_TRUE(sharded.hasShard);
        EXPECT_EQ(sharded.shard.shards, 1u);
        EXPECT_EQ(sharded.shard.rounds, 1u);
        EXPECT_TRUE(sharded.shard.converged);
        EXPECT_EQ(sharded.shard.crossWires, 0u);
        EXPECT_EQ(sharded.shard.liveFlipped, 0u);
    }
}

// ---------------------------------------------------------------------
// M>1: outputs stay correct when every shard needs remote wires
// ---------------------------------------------------------------------

TEST(ShardParity, FourShardsPreserveOutputsOnDependencyHeavyCircuits)
{
    for (const char *name : {"BubbSt", "MatMult", "Hamm"}) {
        SCOPED_TRACE(name);
        const Workload wl = vipWorkload(name, false);

        // Dependency-heavy by construction: every shard imports.
        const HaacConfig cfg;
        const HaacProgram prog = compiledFor(wl, cfg);
        const StreamSet set = recordSchedule(prog, cfg);
        const ShardPlan plan = partitionStreams(prog, set, 4);
        for (const shard::ShardPart &part : plan.parts)
            EXPECT_FALSE(part.imports.empty());

        Session session(wl);
        const RunReport plain = session.run("haac-sim");
        session.withShards(4);
        const RunReport sharded = session.run("haac-sim-sharded");

        ASSERT_TRUE(sharded.hasOutputs);
        EXPECT_EQ(sharded.outputs, plain.outputs);
        EXPECT_EQ(sharded.outputs, wl.expectedOutputs);

        ASSERT_TRUE(sharded.hasShard);
        EXPECT_EQ(sharded.shard.shards, 4u);
        EXPECT_GT(sharded.shard.crossWires, 0u);
        EXPECT_GE(sharded.shard.rounds, 1u);
        ASSERT_EQ(sharded.shard.shardInstructions.size(), 4u);
        uint64_t instrs = 0;
        for (uint64_t v : sharded.shard.shardInstructions)
            instrs += v;
        EXPECT_EQ(instrs, plain.sim.instructions);
    }
}

TEST(ShardParity, RequestBeyondGeCountClampsAndStillMatches)
{
    const Workload wl = vipWorkload("Hamm", false);
    Session session(wl);
    const RunReport plain = session.run("haac-sim");
    session.withShards(64); // numGes defaults to 16
    const RunReport sharded = session.run("haac-sim-sharded");
    EXPECT_EQ(sharded.shard.shards, 16u);
    EXPECT_EQ(sharded.shard.requested, 64u);
    ASSERT_TRUE(sharded.hasOutputs);
    EXPECT_EQ(sharded.outputs, plain.outputs);
}

TEST(ShardParity, ZeroGateProgramRunsOnAnyShardCount)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(a);
    cb.addOutput(b);
    const Netlist nl = cb.build();
    ASSERT_EQ(nl.numGates(), 0u);

    Session session(nl, "passthrough");
    session.withInputs({true}, {false}).withShards(4);
    const RunReport sharded = session.run("haac-sim-sharded");
    ASSERT_TRUE(sharded.hasOutputs);
    EXPECT_EQ(sharded.outputs, nl.evaluate({true}, {false}));
    EXPECT_EQ(sharded.sim.instructions, 0u);
    EXPECT_EQ(sharded.shard.crossWires, 0u);
}

TEST(ShardReport, JsonCarriesTheShardSection)
{
    Session session(vipWorkload("Hamm", false));
    session.withShards(2);
    const RunReport report = session.run("haac-sim-sharded");
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"shard\":{"), std::string::npos);
    EXPECT_NE(json.find("\"shards\":2"), std::string::npos);
    EXPECT_NE(json.find("\"cross_wires\":"), std::string::npos);
}

TEST(ShardRegistry, BackendIsRegistered)
{
    EXPECT_STREQ(createBackend("haac-sim-sharded")->name(),
                 "haac-sim-sharded");
}

// A shard-worker GcServer ends each connection the way it ends a GC
// session: one report line and one served session in its totals.
TEST(ShardWorker, GcServerReportsOneJsonLinePerSession)
{
    std::ostringstream reports;
    ServerOptions sopts;
    sopts.threads = 1;
    sopts.shardWorker = true;
    sopts.reports = &reports;
    GcServer server(sopts);

    const HaacConfig cfg;
    const Workload wl = vipWorkload("Hamm", false);
    const HaacProgram prog = compiledFor(wl, cfg);
    shard::ShardJob job;
    job.config = cfg;
    job.program = prog;
    job.streams = recordSchedule(prog, cfg);

    auto [coordinator, worker] = LoopbackTransport::createPair();
    server.submit(std::move(worker));
    coordinator->handshake(PeerRole::ShardCoordinator);
    coordinator->sendFrame(shard::encodeJob(job));
    coordinator->sendFrame(shard::encodeRound({}));
    const shard::ShardResultMsg result =
        shard::decodeResult(coordinator->recvFrame());
    coordinator->sendFrame(shard::encodeQuit());
    server.drain();

    const std::string text = reports.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
    EXPECT_EQ(text.back(), '\n');
    EXPECT_NE(text.find("\"backend\":\"shard-worker\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"label\":\"shard-session-0\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"cycles\":" +
                        std::to_string(result.stats.cycles)),
              std::string::npos)
        << text;

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.gates, prog.instrs.size());
}

// ---------------------------------------------------------------------
// Remote workers: a real haac_server --shard-worker process
// ---------------------------------------------------------------------

TEST(ShardRemote, HaacServerShardWorkerPoolServesACoordinator)
{
    const char *bin = std::getenv("HAAC_SERVER_BIN");
    if (bin == nullptr || bin[0] == '\0')
        GTEST_SKIP() << "HAAC_SERVER_BIN not set (run through ctest)";
    try {
        TcpListener probe(0, "127.0.0.1");
    } catch (const NetError &) {
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";
    }

    const std::string port_file =
        testing::TempDir() + "haac_shard_port_" +
        std::to_string(::getpid());
    std::remove(port_file.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        ::execl(bin, bin, "--shard-worker", "--bind", "127.0.0.1",
                "--port", "0", "--port-file", port_file.c_str(),
                "--threads", "4", "--sessions", "4", "--quiet",
                static_cast<char *>(nullptr));
        _exit(127); // exec failed
    }

    // Wait for the server to announce its ephemeral port.
    uint32_t port = 0;
    for (int tries = 0; tries < 200 && port == 0; ++tries) {
        std::ifstream pf(port_file);
        if (pf >> port)
            break;
        port = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_NE(port, 0u) << "haac_server never wrote its port";

    const Workload wl = vipWorkload("Hamm", false);
    Session session(wl);
    const RunReport plain = session.run("haac-sim");
    session.withShards(4, {"127.0.0.1:" + std::to_string(port)});
    const RunReport sharded = session.run("haac-sim-sharded");

    ASSERT_TRUE(sharded.hasOutputs);
    EXPECT_EQ(sharded.outputs, plain.outputs);
    EXPECT_EQ(sharded.shard.shards, 4u);
    EXPECT_EQ(sharded.sim.instructions, plain.sim.instructions);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    std::remove(port_file.c_str());
}

} // namespace
} // namespace haac
