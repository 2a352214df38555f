/**
 * @file
 * Parity suite for the haac::Session facade (api/).
 *
 * The facade must be a zero-cost reshuffling of the existing pipelines:
 * every number a Session returns has to be bit-identical to what the
 * direct runProtocol(...) / assemble→compileProgram→simulate call
 * chains produce. These tests pin that down on the millionaires
 * circuit and a VIP workload, across all three SimModes, plus the
 * registry, the serializers, and the Report/Channel satellites.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "api/session.h"
#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/streams.h"
#include "gc/channel.h"
#include "gc/protocol.h"
#include "platform/report.h"
#include "workloads/vip.h"

namespace haac {
namespace {

Netlist
millionaires()
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(32);
    Bits b = cb.evaluatorInputs(32);
    cb.addOutput(ltUnsigned(cb, b, a));
    return cb.build();
}

TEST(SessionParity, SoftwareGcMatchesRunProtocolOnMillionaires)
{
    Netlist netlist = millionaires();
    const std::vector<bool> alice = u64ToBits(1'000'000, 32);
    const std::vector<bool> bob = u64ToBits(1'250'000, 32);

    ProtocolResult direct = runProtocol(netlist, alice, bob);

    Session session(netlist, "millionaires");
    RunReport report =
        session.withInputs(alice, bob).runSoftwareGc();

    ASSERT_TRUE(report.hasOutputs);
    ASSERT_TRUE(report.hasComm);
    EXPECT_FALSE(report.hasSim);
    EXPECT_EQ(report.backend, "software-gc");
    EXPECT_EQ(report.outputs, direct.outputs);
    EXPECT_EQ(report.comm.tableBytes, direct.tableBytes);
    EXPECT_EQ(report.comm.inputLabelBytes, direct.inputLabelBytes);
    EXPECT_EQ(report.comm.otBytes, direct.otBytes);
    EXPECT_EQ(report.comm.outputDecodeBytes, direct.outputDecodeBytes);
    EXPECT_EQ(report.comm.totalBytes, direct.totalBytes);
}

TEST(SessionParity, SoftwareGcHonorsSeed)
{
    Netlist netlist = millionaires();
    const std::vector<bool> alice = u64ToBits(7, 32);
    const std::vector<bool> bob = u64ToBits(9, 32);

    ProtocolResult direct = runProtocol(netlist, alice, bob, 1234);
    RunReport report = Session(netlist)
                           .withInputs(alice, bob)
                           .withSeed(1234)
                           .runSoftwareGc();
    EXPECT_EQ(report.outputs, direct.outputs);
    EXPECT_EQ(report.comm.totalBytes, direct.totalBytes);
}

TEST(SessionParity, HaacSimMatchesDirectPipelineAllModesMillionaires)
{
    Netlist netlist = millionaires();
    HaacConfig cfg;
    CompileOptions copts;
    copts.reorder = ReorderKind::Full;

    for (SimMode mode : {SimMode::Combined, SimMode::ComputeOnly,
                         SimMode::TrafficOnly}) {
        SCOPED_TRACE(simModeName(mode));
        CompileOptions direct_opts = copts;
        direct_opts.swwWires = cfg.swwWires();
        CompileStats direct_stats;
        HaacProgram prog = compileProgram(assemble(netlist),
                                          direct_opts, &direct_stats);
        SimStats direct = simulate(prog, cfg, mode);

        RunReport report = Session(netlist)
                               .withConfig(cfg)
                               .withCompileOptions(copts)
                               .withMode(mode)
                               .runHaacSim();
        ASSERT_TRUE(report.hasSim);
        EXPECT_EQ(report.backend, "haac-sim");
        EXPECT_EQ(report.mode, mode);
        EXPECT_EQ(report.sim.cycles, direct.cycles);
        EXPECT_EQ(report.sim.instructions, direct.instructions);
        EXPECT_EQ(report.sim.totalTrafficBytes(),
                  direct.totalTrafficBytes());
        EXPECT_EQ(report.compile.liveWires, direct_stats.liveWires);
        EXPECT_EQ(report.compile.oorReads, direct_stats.oorReads);
    }
}

TEST(SessionParity, HaacSimMatchesDirectPipelineAllModesVipWorkload)
{
    // One real VIP workload; Hamm is the fastest of the suite.
    Workload wl = vipWorkload("Hamm", false);
    HaacConfig cfg;
    cfg.swwBytes /= 8; // keep window pressure at default scale
    CompileOptions copts;
    copts.reorder = ReorderKind::Segment;

    for (SimMode mode : {SimMode::Combined, SimMode::ComputeOnly,
                         SimMode::TrafficOnly}) {
        SCOPED_TRACE(simModeName(mode));
        CompileOptions direct_opts = copts;
        direct_opts.swwWires = cfg.swwWires();
        CompileStats direct_stats;
        HaacProgram prog = compileProgram(assemble(wl.netlist),
                                          direct_opts, &direct_stats);
        SimStats direct = simulate(prog, cfg, mode);

        RunReport report = Session(wl)
                               .withConfig(cfg)
                               .withCompileOptions(copts)
                               .withMode(mode)
                               .runHaacSim();
        ASSERT_TRUE(report.hasSim);
        EXPECT_EQ(report.workload, "Hamm");
        EXPECT_EQ(report.sim.cycles, direct.cycles);
        EXPECT_EQ(report.sim.stallOperand, direct.stallOperand);
        EXPECT_EQ(report.sim.wireTrafficBytes(),
                  direct.wireTrafficBytes());
        EXPECT_EQ(report.compile.liveWires, direct_stats.liveWires);

        // The workload carries inputs, so the backend interprets the
        // compiled program: outputs must equal the plaintext oracle.
        ASSERT_TRUE(report.hasOutputs);
        EXPECT_EQ(report.outputs, wl.expectedOutputs);
    }
}

TEST(SessionParity, WithOutputsFalseSkipsInterpretationNotTiming)
{
    Workload wl = vipWorkload("Hamm", false);
    Session session(wl);
    RunReport with = session.runHaacSim();
    RunReport without = session.withOutputs(false).runHaacSim();
    EXPECT_TRUE(with.hasOutputs);
    EXPECT_FALSE(without.hasOutputs);
    EXPECT_TRUE(without.outputs.empty());
    EXPECT_EQ(with.sim.cycles, without.sim.cycles);
    EXPECT_EQ(with.compile.liveWires, without.compile.liveWires);
}

TEST(SessionParity, BothBackendsAgreeOnOutputs)
{
    Workload wl = vipWorkload("Hamm", false);
    Session session(wl);
    RunReport sw = session.runSoftwareGc();
    RunReport hw = session.runHaacSim();
    ASSERT_TRUE(sw.hasOutputs);
    ASSERT_TRUE(hw.hasOutputs);
    EXPECT_EQ(sw.outputs, hw.outputs);
    EXPECT_EQ(sw.outputs, wl.expectedOutputs);
}

TEST(SessionCompile, CompileOnlyMatchesDirectPasses)
{
    Workload wl = vipWorkload("Hamm", false);
    HaacConfig cfg;
    CompileOptions copts;
    copts.reorder = ReorderKind::Full;

    CompileOptions direct_opts = copts;
    direct_opts.swwWires = cfg.swwWires();
    CompileStats direct_stats;
    HaacProgram direct = compileProgram(assemble(wl.netlist),
                                        direct_opts, &direct_stats);

    Session::Compiled compiled = Session(wl)
                                     .withConfig(cfg)
                                     .withCompileOptions(copts)
                                     .compile();
    EXPECT_EQ(compiled.stats.liveWires, direct_stats.liveWires);
    EXPECT_EQ(compiled.stats.instructions, direct_stats.instructions);
    ASSERT_EQ(compiled.program.instrs.size(), direct.instrs.size());
    for (size_t i = 0; i < direct.instrs.size(); ++i) {
        EXPECT_EQ(compiled.program.instrs[i].a, direct.instrs[i].a);
        EXPECT_EQ(compiled.program.instrs[i].b, direct.instrs[i].b);
    }
    EXPECT_TRUE(compiled.program.check().empty());
}

TEST(SessionCompile, RefusesIllFormedNetlistByThrowing)
{
    // User-supplied (not compiler-generated) circuit: the analyzer
    // refusal must surface as the documented logic_error in every
    // build mode, never an assert/abort.
    Netlist bad;
    bad.numGarblerInputs = 1;
    bad.numEvaluatorInputs = 1;
    bad.gates.push_back({GateOp::And, 0, 77}); // reads undefined wire
    bad.outputs.push_back(bad.outputWireOf(0));

    CompileOptions copts;
    copts.verify = true; // Release builds gate the check on this
    try {
        Session(std::move(bad)).withCompileOptions(copts).compile();
        FAIL() << "expected refusal";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("circuit analyzer"), std::string::npos);
    }
}

TEST(BackendRegistry, BuiltinsRegisteredAndResolvable)
{
    std::vector<std::string> names = backendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "software-gc"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "haac-sim"),
              names.end());

    Workload wl = vipWorkload("Hamm", false);
    RunReport by_name = Session(wl).run("haac-sim");
    EXPECT_EQ(by_name.backend, "haac-sim");
    EXPECT_TRUE(by_name.hasSim);
}

TEST(BackendRegistry, UnknownNameThrowsListingKnown)
{
    try {
        createBackend("no-such-backend");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no-such-backend"), std::string::npos);
        EXPECT_NE(msg.find("haac-sim"), std::string::npos);
    }
}

TEST(BackendRegistry, CustomBackendPlugsIn)
{
    class NullBackend : public Backend
    {
      public:
        const char *name() const override { return "null"; }
        RunReport
        execute(const Session &) override
        {
            RunReport r;
            r.hostSeconds = 42.0;
            return r;
        }
    };

    // First registration wins; duplicates are rejected.
    const bool registered = registerBackend("test-null", [] {
        return std::unique_ptr<Backend>(new NullBackend());
    });
    EXPECT_TRUE(registered);
    EXPECT_FALSE(registerBackend("test-null", [] {
        return std::unique_ptr<Backend>(new NullBackend());
    }));

    Workload wl = vipWorkload("Hamm", false);
    RunReport r = Session(wl).run("test-null");
    EXPECT_EQ(r.backend, "null"); // Backend::name(), not registry key
    EXPECT_EQ(r.workload, "Hamm");
    EXPECT_DOUBLE_EQ(r.hostSeconds, 42.0);
}

TEST(RunReportSerialization, JsonHasSectionsAndBalancedBraces)
{
    Workload wl = vipWorkload("Hamm", false);
    RunReport r =
        Session(wl).withLabel("unit \"test\"").runHaacSim();
    const std::string json = r.toJson();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < json.size(); ++i) {
        const char ch = json[i];
        if (in_string) {
            if (ch == '\\')
                ++i;
            else if (ch == '"')
                in_string = false;
        } else if (ch == '"') {
            in_string = true;
        } else if (ch == '{') {
            ++depth;
        } else if (ch == '}') {
            --depth;
            EXPECT_GE(depth, 0);
        }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);

    EXPECT_NE(json.find("\"backend\":\"haac-sim\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"Hamm\""), std::string::npos);
    EXPECT_NE(json.find("\"label\":\"unit \\\"test\\\"\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim\":{"), std::string::npos);
    EXPECT_NE(json.find("\"energy\":{"), std::string::npos);
    EXPECT_EQ(json.find("\"comm\":{"), std::string::npos)
        << "sim-only report must not claim comm accounting";

    // All six stall causes, each with the engine's own count.
    const std::pair<const char *, uint64_t> stalls[] = {
        {"stall_operand", r.sim.stallOperand},
        {"stall_instr_queue", r.sim.stallInstrQueue},
        {"stall_table_queue", r.sim.stallTableQueue},
        {"stall_oorw_queue", r.sim.stallOorwQueue},
        {"stall_bank", r.sim.stallBank},
        {"stall_write_buffer", r.sim.stallWriteBuffer},
    };
    for (const auto &[key, count] : stalls)
        EXPECT_NE(json.find("\"" + std::string(key) +
                            "\":" + std::to_string(count)),
                  std::string::npos)
            << key;
}

TEST(RunReportSerialization, CsvRowMatchesHeaderArity)
{
    Workload wl = vipWorkload("Hamm", false);
    RunReport r = Session(wl).runSoftwareGc();
    const std::string header = RunReport::csvHeader();
    const std::string row = r.csvRow();
    const auto count = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(count(header), count(row));
    EXPECT_EQ(r.toCsv(), header + "\n" + row + "\n");
}

TEST(ReportFormat, PerInstanceFormatNoGlobalState)
{
    Report text({"aa", "bb"});
    Report csv({"aa", "bb"}, ReportFormat::Csv);
    text.addRow({"1", "2"});
    csv.addRow({"1", "2"});

    std::ostringstream ts, cs;
    text.print(ts);
    csv.print(cs);
    EXPECT_NE(ts.str().find("--"), std::string::npos); // table rule
    EXPECT_EQ(cs.str(), "aa,bb\n1,2\n");
    // Printing one must not change how the other renders.
    std::ostringstream ts2;
    text.print(ts2);
    EXPECT_EQ(ts.str(), ts2.str());
}

TEST(Channel, RecvBytesBulkRoundtripAndUnderflowMessage)
{
    Channel chan;
    std::vector<uint8_t> sent(100000);
    for (size_t i = 0; i < sent.size(); ++i)
        sent[i] = uint8_t(i * 131 + 7);
    // Interleave sends and receives so the consumed-prefix compaction
    // path runs.
    std::vector<uint8_t> got(sent.size());
    size_t r = 0, w = 0;
    while (r < sent.size()) {
        const size_t burst = std::min<size_t>(8192, sent.size() - w);
        if (burst > 0) {
            chan.sendBytes(sent.data() + w, burst);
            w += burst;
        }
        const size_t take = std::min<size_t>(3000, chan.pending());
        chan.recvBytes(got.data() + r, take);
        r += take;
    }
    EXPECT_EQ(got, sent);
    EXPECT_EQ(chan.pending(), 0u);

    try {
        uint8_t buf[4];
        chan.recvBytes(buf, 4);
        FAIL() << "expected underflow";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("underflow"), std::string::npos);
        EXPECT_NE(msg.find("requested 4"), std::string::npos);
        EXPECT_NE(msg.find("only 0"), std::string::npos);
    }
}

} // namespace
} // namespace haac
