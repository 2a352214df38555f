/**
 * @file
 * GcServer: the multi-session two-party service — workload spec
 * resolution, session establishment (clientHello), error acks,
 * JSON-Lines report emission, and the concurrency stress test the
 * acceptance criteria require (>= 8 concurrent sessions, clean under
 * ASan/UBSan; CI's sanitizer job runs this suite).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chain/component.h"
#include "chain/workloads.h"
#include "circuit/bristol.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/server.h"
#include "workloads/priorwork.h"
#include "session_golden.h"

using namespace haac;

namespace {

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

size_t
countLines(const std::string &s)
{
    size_t n = 0;
    for (char ch : s)
        if (ch == '\n')
            ++n;
    return n;
}

} // namespace

TEST(ResolveWorkload, KnownSpecs)
{
    EXPECT_EQ(resolveWorkload("Million:32").netlist.numGarblerInputs,
              32u);
    EXPECT_EQ(resolveWorkload("Adder:16").netlist.numEvaluatorInputs,
              16u);
    EXPECT_GT(resolveWorkload("Mult:8").netlist.numAndGates(), 0u);
    EXPECT_GT(resolveWorkload("AES128").netlist.numGates(), 0u);
    EXPECT_GT(resolveWorkload("Hamm").netlist.numGates(), 0u);
}

TEST(ResolveWorkload, RejectsUnknownAndMalformed)
{
    EXPECT_THROW(resolveWorkload("NoSuchCircuit"), NetError);
    EXPECT_THROW(resolveWorkload("Million:"), NetError);
    EXPECT_THROW(resolveWorkload("Million:zero"), NetError);
    EXPECT_THROW(resolveWorkload("Million:0"), NetError);
    EXPECT_THROW(resolveWorkload("Bogus:12"), NetError);
}

TEST(ResolveWorkload, GateBoundCoversEveryFamily)
{
    // Past 32 (Mult) and 64 (Million, Adder) bits the sample inputs
    // and expected outputs no longer fit one 64-bit word.
    for (const char *family : {"Million", "millionaire", "Adder", "Mult"})
        for (uint32_t n : {1u, 8u, 33u, 64u, 65u}) {
            const std::string spec =
                std::string(family) + ":" + std::to_string(n);
            const Workload wl = resolveWorkload(spec);
            EXPECT_GE(workloadGateBound(spec), wl.netlist.numGates())
                << spec;
            EXPECT_EQ(wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits),
                      wl.expectedOutputs)
                << spec;
        }
    // Fixed circuits and unknown names carry no bound from a size.
    EXPECT_EQ(workloadGateBound("AES128"), 0u);
    EXPECT_EQ(workloadGateBound("Hamm"), 0u);
    EXPECT_EQ(workloadGateBound("NoSuch:9"), 0u);
    // The largest size argument: quadratic in N, far past any cap.
    EXPECT_GT(workloadGateBound("Mult:1048576"), uint64_t(1) << 40);
    EXPECT_THROW(workloadGateBound("Mult:0"), NetError);
}

// ---------------------------------------------------------------------
// The one "Name:N" grammar (circuit/spec.h) behind every entry point
// ---------------------------------------------------------------------

TEST(SpecGrammar, CanonicalSpecsResolve)
{
    // The specs the tests, benches, examples and haacbench name.
    std::vector<std::string> registry = {
        "Million:8", "Million:16", "Million:32", "millionaire:8",
        "Adder:8",   "Adder:16",   "Mult:4",     "Mult:8",
        "AES128",    "aes128"};
    for (const std::string &vip : vipNames())
        registry.push_back(vip);
    for (const std::string &spec : registry)
        EXPECT_NO_THROW(resolveWorkload(spec)) << spec;
    EXPECT_EQ(workloadGateBound("Mult:1048576"), 6ull << 40);

    for (const char *spec :
         {"ChainMillSum:8", "ChainMillSum:16", "ChainMillSum:32",
          "ChainAbsDiff:8", "ChainAbsDiff:32", "ChainProdCmp:8",
          "ChainProdCmp:32", "ChainHammCmp:8", "ChainMillSum:512"})
        EXPECT_EQ(chain::resolveChainWorkload(spec).name, spec);

    for (const char *spec : {"ADD:32", "ADD:512", "CMP:32", "MUX:8",
                             "MUL:64", "SUB:1", "XOR:8"})
        EXPECT_EQ(chain::parseComponentSpec(spec).name(), spec);
}

TEST(SpecGrammar, NonCanonicalSizesAreRefused)
{
    // Leading zeros, signs and blanks once named an existing circuit
    // under a second key; wide values wrapped around 32 bits.
    for (const char *spec :
         {"Million:08", "Million: 8", "Million:+8", "Million:-1",
          "Million:0008", "Million:8 ", "Million:0x8", "Mult:1048577",
          "Million:4294967304"}) {
        EXPECT_THROW(resolveWorkload(spec), NetError) << spec;
        EXPECT_THROW(workloadGateBound(spec), NetError) << spec;
    }
    for (const char *spec :
         {"ChainMillSum:08", "ChainMillSum: 8", "ChainMillSum:+8",
          "ChainMillSum:-1", "ChainMillSum:4294967297",
          "ChainMillSum:513"})
        EXPECT_THROW(chain::resolveChainWorkload(spec),
                     std::invalid_argument)
            << spec;
    for (const char *spec : {"ADD:08", "ADD: 8", "ADD:+8", "ADD:-1",
                             "ADD:4294967328", "ADD:513"})
        EXPECT_THROW(chain::parseComponentSpec(spec),
                     std::invalid_argument)
            << spec;
}

TEST(GcServer, ServesOneSessionWithReportLine)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 2;
    opts.reports = &reports;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Million:16");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    // Client garbles with its own bits; the server evaluates with the
    // workload's sample bits.
    clientHello(*client_end, PeerRole::Garbler, "Million:16");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 77);
    client_end.reset(); // connections are multi-session: close to end
    server.drain();

    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.gates, wl.netlist.numGates());

    const std::string line = reports.str();
    EXPECT_EQ(countLines(line), 1u);
    EXPECT_NE(line.find("\"backend\":\"remote-gc\""),
              std::string::npos);
    EXPECT_NE(line.find("\"workload\":\"Million-16\""),
              std::string::npos);
    EXPECT_NE(line.find("\"label\":\"session-0\""), std::string::npos);
    EXPECT_NE(line.find("\"net\""), std::string::npos);
}

TEST(GcServer, RefusesZeroWorkers)
{
    // With no worker thread, submitted connections would queue forever.
    ServerOptions opts;
    opts.threads = 0;
    EXPECT_THROW(GcServer server(opts), std::invalid_argument);
}

TEST(GcServer, InlineGarblingSeedsAreFreshPerServer)
{
    // Session 0 of Million:32 on two fresh servers, each garbling
    // inline. The garbler's input labels the client receives must
    // differ between the servers and must not be the expansion of the
    // public seed 0x4841414331 (session 0 of the old default seed
    // base): a client that can expand them reads the server's input
    // bits off its labels.
    const Workload wl = resolveWorkload("Million:32");
    const uint32_t g = wl.netlist.numGarblerInputs;
    const InputLabels pub = expandInputLabels(0x4841414331ull, g);
    std::vector<std::vector<uint8_t>> received;
    for (int s = 0; s < 2; ++s) {
        ServerOptions opts;
        opts.threads = 1;
        GcServer server(opts);
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        clientHello(*client_end, PeerRole::Evaluator, "Million:32");
        golden::RecordingTransport rec(*client_end);
        const RemoteResult res =
            runRemoteEvaluator(wl.netlist, wl.evaluatorBits, rec);
        client_end.reset();
        server.drain();
        EXPECT_EQ(res.outputs, wl.expectedOutputs);

        // The first frame after the OT phase holds the garbler's labels.
        const auto frames = golden::splitFrames(rec.received);
        const size_t at =
            golden::postOtStart(frames, res.totalBytes - res.otBytes);
        ASSERT_LT(at, frames.size());
        ASSERT_EQ(frames[at].size(), size_t(g) * kLabelBytes);
        for (uint32_t i = 0; i < g; ++i) {
            const Label l =
                Label::fromBytes(frames[at].data() + i * kLabelBytes);
            EXPECT_FALSE(l == pub.activeLabel(i, false) ||
                         l == pub.activeLabel(i, true))
                << "server " << s << " label " << i
                << " is the public seed's";
        }
        received.push_back(frames[at]);
    }
    EXPECT_NE(received[0], received[1])
        << "two servers sent the same garbler labels";
}

TEST(GcServer, ClientMayEvaluateToo)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);
    const Workload wl = resolveWorkload("Adder:8");

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Evaluator, "Adder:8");
    const RemoteResult res = runRemoteEvaluator(
        wl.netlist, wl.evaluatorBits, *client_end);
    client_end.reset();
    server.drain();
    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    EXPECT_EQ(server.totals().sessionsServed, 1u);
}

TEST(GcServer, RefusesBadSpecAndKeepsServing)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 2;
    opts.reports = &reports;
    GcServer server(opts);

    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        try {
            clientHello(*client_end, PeerRole::Garbler, "NoSuch:9");
            FAIL() << "expected refusal";
        } catch (const NetError &e) {
            EXPECT_NE(std::string(e.what()).find("unknown workload"),
                      std::string::npos);
        }
    }
    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        EXPECT_THROW(clientHello(*client_end, PeerRole::Garbler, ""),
                     NetError);
    }

    // The server survives refused sessions and serves real ones.
    const Workload wl = resolveWorkload("Million:8");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Garbler, "Million:8");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 3);
    client_end.reset();
    server.drain();

    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 2u);
    EXPECT_EQ(countLines(reports.str()), 1u);
}

TEST(GcServer, StressEightPlusConcurrentSessions)
{
    // The acceptance bar: >= 8 sessions in flight at once, mixed
    // workloads and roles, every output correct, every session
    // reported, no data races (CI runs this under ASan/UBSan).
    constexpr uint32_t kWorkers = 8;
    constexpr uint32_t kSessions = 16;
    const char *kSpecs[] = {"Million:16", "Adder:8", "Million:8",
                            "Mult:4"};

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = kWorkers;
    opts.reports = &reports;
    GcServer server(opts);

    // Submit every server end first so all workers go busy together,
    // then run all clients concurrently.
    std::vector<std::unique_ptr<LoopbackTransport>> client_ends;
    for (uint32_t i = 0; i < kSessions; ++i) {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        client_ends.push_back(std::move(client_end));
        server.submit(std::move(server_end));
    }

    // Each client owns its endpoint and closes it on completion —
    // parked multi-session connections would otherwise pin all
    // kWorkers workers and starve the remaining connections.
    std::atomic<uint32_t> ok{0};
    std::vector<std::unique_ptr<PeerThread>> clients;
    for (uint32_t i = 0; i < kSessions; ++i) {
        clients.push_back(std::make_unique<PeerThread>(
            [i, &ok, &kSpecs, t = std::move(client_ends[i])] {
                const std::string spec = kSpecs[i % 4];
                const Workload wl = resolveWorkload(spec);
                const std::vector<bool> expected = wl.netlist.evaluate(
                    wl.garblerBits, wl.evaluatorBits);
                const bool garble = i % 2 == 0;
                clientHello(*t,
                            garble ? PeerRole::Garbler
                                   : PeerRole::Evaluator,
                            spec);
                const RemoteResult res =
                    garble ? runRemoteGarbler(wl.netlist,
                                              wl.garblerBits, *t,
                                              1000 + i)
                           : runRemoteEvaluator(wl.netlist,
                                                wl.evaluatorBits, *t);
                if (res.outputs == expected)
                    ++ok;
            }));
    }
    for (auto &client : clients)
        client->join();
    server.drain();

    EXPECT_EQ(ok.load(), kSessions);
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, kSessions);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_GT(totals.payloadBytes, 0u);
    EXPECT_EQ(countLines(reports.str()), kSessions);
}

TEST(GcServer, ServeTcpAcceptLoop)
{
    std::unique_ptr<TcpListener> listener;
    try {
        listener = std::make_unique<TcpListener>(0, "127.0.0.1");
    } catch (const NetError &) {
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";
    }

    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 4;
    opts.reports = &reports;
    GcServer server(opts);
    PeerThread accept_loop([&] { server.serveTcp(*listener); });

    const Workload wl = resolveWorkload("Million:8");
    for (int i = 0; i < 2; ++i) {
        auto conn = TcpTransport::connect("127.0.0.1",
                                          listener->port());
        clientHello(*conn, PeerRole::Garbler, "Million:8");
        const RemoteResult res = runRemoteGarbler(
            wl.netlist, wl.garblerBits, *conn, 50 + i);
        EXPECT_EQ(res.outputs, wl.netlist.evaluate(
                                   wl.garblerBits, wl.evaluatorBits));
    }
    server.drain();
    listener->close(); // winds down the accept loop
    accept_loop.join();

    EXPECT_EQ(server.totals().sessionsServed, 2u);
    EXPECT_EQ(countLines(reports.str()), 2u);
}

// ---------------------------------------------------------------------
// Netlist uploads: the analyzer as admission gate
// ---------------------------------------------------------------------

namespace {

/** (g0 AND e0) XOR g0, inverted — 3 gates, both parties involved. */
const char *kCleanBristol = "3 5\n"
                            "1 1 1\n"
                            "\n"
                            "2 1 0 1 2 AND\n"
                            "2 1 0 2 3 XOR\n"
                            "1 1 3 4 INV\n";

} // namespace

TEST(GcServer, ServesUploadedNetlist)
{
    std::ostringstream reports;
    ServerOptions opts;
    opts.threads = 1;
    opts.reports = &reports;
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    // Uploads skip the spec frame: handshake, then the upload request.
    client_end->handshake(PeerRole::Garbler);
    clientUploadRequest(*client_end, kCleanBristol);

    const Netlist nl = readBristolString(kCleanBristol);
    const std::vector<bool> garbler_bits{true};
    const RemoteResult res =
        runRemoteGarbler(nl, garbler_bits, *client_end, 31);
    client_end.reset();
    server.drain();

    // The server evaluated with all-zero inputs (it has no stake in a
    // circuit it has never seen).
    EXPECT_EQ(res.outputs, nl.evaluate(garbler_bits, {false}));

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.uploadSessions, 1u);
    EXPECT_EQ(totals.uploadsRefused, 0u);
    EXPECT_EQ(totals.sessionsFailed, 0u);
    EXPECT_EQ(totals.gates, nl.numGates());
    EXPECT_NE(reports.str().find("\"workload\":\"uploaded-netlist\""),
              std::string::npos);
}

TEST(GcServer, RefusesCyclicUploadBeforeGarbling)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    // Gate 0 reads file wire 3, which is only defined by gate 1: the
    // textual form of a combinational cycle. Refused at parse.
    const std::string cyclic = "3 5\n"
                               "1 1 1\n"
                               "\n"
                               "2 1 0 3 2 XOR\n"
                               "2 1 0 1 3 XOR\n"
                               "1 1 2 4 INV\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, cyclic);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("undefined wire"),
                  std::string::npos);
    }
    client_end.reset();
    server.drain();

    // Refused before any garbling work: no gates, no session served.
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.sessionsFailed, 1u);
    EXPECT_EQ(totals.sessionsServed, 0u);
    EXPECT_EQ(totals.uploadSessions, 0u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesMultiplyDrivenUploadViaAnalyzer)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    // Parses fine (last definition wins), so only the analyzer's
    // multiply-driven diagnostic stands between this and the garbler.
    const std::string rebind = "3 5\n"
                               "1 1 1\n"
                               "\n"
                               "2 1 0 1 3 XOR\n"
                               "2 1 1 0 3 XOR\n"
                               "1 1 3 4 INV\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, rebind);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("circuit analyzer"), std::string::npos);
        EXPECT_NE(what.find("driven again"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesOversizedUploadBeforeParsing)
{
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 2; // the clean upload declares 3
    GcServer server(opts);

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, kCleanBristol);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("declares 3 gates"), std::string::npos);
        EXPECT_NE(what.find("at most 2"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, RefusesOversizedSpecBeforeBuilding)
{
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 1000; // Mult:64 bounds to 24,576 gates, Mult:4 to 96
    GcServer server(opts);

    {
        auto [client_end, server_end] = LoopbackTransport::createPair();
        server.submit(std::move(server_end));
        try {
            clientHello(*client_end, PeerRole::Garbler, "Mult:64");
            FAIL() << "expected refusal";
        } catch (const NetError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("\"Mult:64\" builds up to 24576 gates"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("at most 1000"), std::string::npos);
        }
    }

    // The refusal costs the server nothing: a spec under the cap is
    // still served.
    const Workload wl = resolveWorkload("Mult:4");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    clientHello(*client_end, PeerRole::Garbler, "Mult:4");
    const RemoteResult res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 5);
    client_end.reset();
    server.drain();

    EXPECT_EQ(res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));
    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 1u);
    EXPECT_EQ(totals.sessionsFailed, 1u);
    EXPECT_EQ(totals.gates, wl.netlist.numGates());
}

TEST(GcServer, RefusesWireInflatedUploadBeforeParsing)
{
    ServerOptions opts;
    opts.threads = 1;
    opts.maxGates = 2; // wire cap follows: 2 * 2 + 1 = 5
    GcServer server(opts);

    // Gate count passes the cap; the declared wire count alone must
    // refuse the upload before the parser sizes its wire map off it.
    const std::string inflated = "2 1000000000\n1 1 1\n\n"
                                 "2 1 0 1 3 AND\n"
                                 "2 1 0 3 4 XOR\n";

    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));
    client_end->handshake(PeerRole::Garbler);
    try {
        clientUploadRequest(*client_end, inflated);
        FAIL() << "expected refusal";
    } catch (const NetError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("declares 1000000000 wires"),
                  std::string::npos);
        EXPECT_NE(what.find("at most 5"), std::string::npos);
    }
    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.uploadsRefused, 1u);
    EXPECT_EQ(totals.gates, 0u);
}

TEST(GcServer, UploadAndSpecSessionsShareAConnection)
{
    ServerOptions opts;
    opts.threads = 1;
    GcServer server(opts);

    const Workload wl = resolveWorkload("Million:8");
    auto [client_end, server_end] = LoopbackTransport::createPair();
    server.submit(std::move(server_end));

    client_end->handshake(PeerRole::Garbler);

    // Session 1: a registry spec.
    clientRequest(*client_end, "Million:8");
    const RemoteResult spec_res = runRemoteGarbler(
        wl.netlist, wl.garblerBits, *client_end, 61);
    EXPECT_EQ(spec_res.outputs,
              wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits));

    // Session 2, same connection: an uploaded circuit.
    clientUploadRequest(*client_end, kCleanBristol);
    const Netlist nl = readBristolString(kCleanBristol);
    const RemoteResult up_res =
        runRemoteGarbler(nl, {true}, *client_end, 62);
    EXPECT_EQ(up_res.outputs, nl.evaluate({true}, {false}));

    client_end.reset();
    server.drain();

    const GcServer::Totals totals = server.totals();
    EXPECT_EQ(totals.sessionsServed, 2u);
    EXPECT_EQ(totals.uploadSessions, 1u);
    EXPECT_EQ(totals.connectionsServed, 1u);
}
