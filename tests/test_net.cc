/**
 * @file
 * The src/net/ subsystem: framing + handshake, LoopbackTransport,
 * NetChannel, the StreamingGarbler generalization, and the remote
 * two-party protocol — pinned to the plaintext, to closed-form byte
 * accounting in every category, and to the session-shape goldens
 * (every frame boundary and post-OT garbler byte).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <exception>
#include <iterator>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <dirent.h>
#endif

#include "api/session.h"
#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "gc/base_ot.h"
#include "gc/garbler.h"
#include "gc/instance.h"
#include "gc/protocol.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/net_channel.h"
#include "net/remote.h"
#include "net/server.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "workloads/priorwork.h"
#include "workloads/vip.h"
#include "session_golden.h"

using namespace haac;

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

Netlist
adderCircuit(uint32_t bits)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(bits);
    Bits b = cb.evaluatorInputs(bits);
    cb.addOutputs(addBits(cb, a, b));
    return cb.build();
}

/** Both remote sides over loopback; returns {garbler, evaluator}. */
std::pair<RemoteResult, RemoteResult>
runRemotePair(const Netlist &nl, const std::vector<bool> &gbits,
              const std::vector<bool> &ebits, uint64_t seed,
              uint32_t segment_tables)
{
    auto [gend, eend] = LoopbackTransport::createPair();
    RemoteOptions opts;
    opts.segmentTables = segment_tables;
    RemoteResult gres, eres;
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        gres = runRemoteGarbler(nl, gbits, *t, seed, opts);
    });
    eend->handshake(PeerRole::Evaluator);
    eres = runRemoteEvaluator(nl, ebits, *eend, opts);
    garbler.join();
    return {gres, eres};
}

/**
 * Both sides over loopback: outputs equal the plaintext and every byte
 * category equals its closed form (the fresh IKNP wire shape of
 * gc/ot_ext.h), identically on both sides.
 */
void
expectExactAccounting(const Netlist &nl, const std::vector<bool> &gbits,
                      const std::vector<bool> &ebits, uint64_t seed,
                      uint32_t segment_tables)
{
    auto [gres, eres] =
        runRemotePair(nl, gbits, ebits, seed, segment_tables);
    const uint64_t m = nl.numEvaluatorInputs;
    const uint64_t ot_down = m > 0 ? 4096 + 2 * kLabelBytes * m : 0;
    const uint64_t ot_up = m > 0 ? 32 + 2048 * ((m + 127) / 128 + 1) + 32
                                 : 0;
    const uint64_t ands = nl.numAndGates();
    for (const RemoteResult *r : {&gres, &eres}) {
        EXPECT_EQ(r->outputs, nl.evaluate(gbits, ebits));
        EXPECT_EQ(r->tableBytes, ands * kTableBytes);
        EXPECT_EQ(r->inputLabelBytes, nl.numGarblerInputs * kLabelBytes);
        EXPECT_EQ(r->otBytes,
                  ot_down + (nl.constOne != kNoWire ? kLabelBytes : 0));
        EXPECT_EQ(r->otUplinkBytes, ot_up);
        EXPECT_EQ(r->outputDecodeBytes, nl.outputs.size());
        EXPECT_EQ(r->totalBytes, r->tableBytes + r->inputLabelBytes +
                                     r->otBytes + r->outputDecodeBytes);
        EXPECT_EQ(r->tableSegments,
                  (ands + segment_tables - 1) / segment_tables);
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Transport framing and handshake
// ---------------------------------------------------------------------------

TEST(Transport, FrameRoundtripWithCounters)
{
    auto [a, b] = LoopbackTransport::createPair();
    const std::vector<uint8_t> small = {1, 2, 3};
    std::vector<uint8_t> big(100000);
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = uint8_t(i * 7);

    a->sendFrame(small);
    a->sendFrame(std::vector<uint8_t>{}); // empty frames are legal
    a->sendFrame(big);
    EXPECT_EQ(a->framesSent(), 3u);
    EXPECT_EQ(a->rawBytesSent(), 3 * 4 + small.size() + big.size());

    EXPECT_EQ(b->recvFrame(), small);
    EXPECT_TRUE(b->recvFrame().empty());
    EXPECT_EQ(b->recvFrame(), big);
    EXPECT_EQ(b->framesReceived(), 3u);
    EXPECT_EQ(b->rawBytesReceived(), a->rawBytesSent());
}

TEST(Loopback, BoundedWindowBlocksWriterUntilReaderDrains)
{
    // A 16-byte window and a 4 KB write: the writer must stall on the
    // stalled reader (flow control) instead of buffering everything.
    auto [a, b] = LoopbackTransport::createPair(16);
    std::vector<uint8_t> sent(4096);
    for (size_t i = 0; i < sent.size(); ++i)
        sent[i] = uint8_t(i * 13);

    std::atomic<bool> writer_done{false};
    std::thread writer([&, t = a.get()] {
        t->writeAll(sent.data(), sent.size());
        writer_done = true;
    });

    // Reader stalled: the writer must still be blocked after a grace
    // period, having pushed at most one window.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(writer_done.load());

    std::vector<uint8_t> got(sent.size());
    b->readAll(got.data(), got.size());
    writer.join();
    EXPECT_TRUE(writer_done.load());
    EXPECT_EQ(got, sent);
}

TEST(Loopback, CloseUnblocksAStalledWriter)
{
    auto [a, b] = LoopbackTransport::createPair(8);
    std::atomic<bool> threw{false};
    std::thread writer([&, t = a.get()] {
        std::vector<uint8_t> big(1024, 0x5a);
        try {
            t->writeAll(big.data(), big.size());
        } catch (const NetError &) {
            threw = true;
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    b.reset(); // closes both directions
    writer.join();
    EXPECT_TRUE(threw.load());
}

TEST(Transport, HandshakePairsComplementaryRoles)
{
    auto [a, b] = LoopbackTransport::createPair();
    PeerThread peer([&, t = b.get()] {
        EXPECT_EQ(t->handshake(PeerRole::Evaluator), PeerRole::Garbler);
    });
    EXPECT_EQ(a->handshake(PeerRole::Garbler), PeerRole::Evaluator);
    peer.join();
}

TEST(Transport, HandshakeRejectsRoleCollision)
{
    auto [a, b] = LoopbackTransport::createPair();
    PeerThread peer([&, t = b.get()] {
        try {
            t->handshake(PeerRole::Garbler);
        } catch (const NetError &) {
        }
    });
    EXPECT_THROW(a->handshake(PeerRole::Garbler), NetError);
    peer.join();
}

TEST(Transport, HandshakeRejectsBadMagicAndVersion)
{
    {
        auto [a, b] = LoopbackTransport::createPair();
        const uint8_t junk[8] = {'N', 'O', 'P', 'E', 1, 0, 0, 0};
        b->writeAll(junk, sizeof(junk));
        EXPECT_THROW(a->handshake(PeerRole::Garbler), NetError);
    }
    {
        auto [a, b] = LoopbackTransport::createPair();
        const uint8_t future[8] = {'H', 'A', 'A', 'C', 99, 0, 1, 0};
        b->writeAll(future, sizeof(future));
        try {
            a->handshake(PeerRole::Garbler);
            FAIL() << "expected version mismatch";
        } catch (const NetError &e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
        }
    }
}

TEST(Transport, RecvFrameRejectsOversizedLength)
{
    auto [a, b] = LoopbackTransport::createPair();
    const uint8_t header[4] = {0xff, 0xff, 0xff, 0xff};
    b->writeAll(header, sizeof(header));
    EXPECT_THROW(a->recvFrame(), NetError);
}

TEST(Transport, ClosedPeerRaisesNetError)
{
    auto [a, b] = LoopbackTransport::createPair();
    b.reset(); // peer gone
    uint8_t byte = 0;
    EXPECT_THROW(a->readAll(&byte, 1), NetError);
}

// ---------------------------------------------------------------------------
// NetChannel
// ---------------------------------------------------------------------------

TEST(NetChannel, TypedRoundtripAcrossFrames)
{
    auto [a, b] = LoopbackTransport::createPair();
    NetChannel out(*a, 16); // tiny threshold: forces many frames
    NetChannel in(*b);

    out.sendLabel(Label(1, 2));
    out.sendBit(true);
    out.sendLabel(Label(3, 4));
    out.sendLabel(Label(5, 6));
    out.sendBit(false);
    out.flush();
    EXPECT_EQ(out.bytesSent(), 16 + 1 + 32 + 1u);
    EXPECT_GE(a->framesSent(), 2u) << "threshold should have split";

    EXPECT_EQ(in.recvLabel(), Label(1, 2));
    EXPECT_TRUE(in.recvBit());
    EXPECT_EQ(in.recvLabel(), Label(3, 4));
    EXPECT_EQ(in.recvLabel(), Label(5, 6));
    EXPECT_FALSE(in.recvBit());
    EXPECT_EQ(in.bytesReceived(), out.bytesSent());
}

TEST(NetChannel, ReadFlushesPendingWritesFirst)
{
    // A request/response turnaround must not deadlock on bytes stuck
    // in the write buffer: readBytes() flushes implicitly.
    auto [a, b] = LoopbackTransport::createPair();
    PeerThread peer([&, t = b.get()] {
        NetChannel chan(*t, NetChannel::kDefaultFlushBytes);
        const bool ping = chan.recvBit();
        chan.sendBit(!ping);
        chan.flush();
    });
    NetChannel chan(*a, NetChannel::kDefaultFlushBytes);
    chan.sendBit(true); // stays buffered: below the threshold
    EXPECT_FALSE(chan.recvBit());
    peer.join();
}

// ---------------------------------------------------------------------------
// Channel boundary coverage (in-process FIFO)
// ---------------------------------------------------------------------------

TEST(Channel, UnderflowAfterPartialConsumeReportsCounts)
{
    Channel chan;
    const uint8_t data[10] = {};
    chan.sendBytes(data, sizeof(data));
    uint8_t out[7];
    chan.recvBytes(out, sizeof(out));
    try {
        chan.recvBytes(out, 7); // only 3 left
        FAIL() << "expected underflow";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("underflow"), std::string::npos);
        EXPECT_NE(msg.find("7"), std::string::npos);
        EXPECT_NE(msg.find("3"), std::string::npos);
    }
    // The 3 buffered bytes are still intact after the failed read.
    uint8_t rest[3];
    chan.recvBytes(rest, sizeof(rest));
    EXPECT_EQ(chan.pending(), 0u);
}

TEST(Channel, ZeroByteTransfersAreExact)
{
    Channel chan;
    chan.sendBytes(nullptr, 0);
    EXPECT_EQ(chan.bytesSent(), 0u);
    chan.recvBytes(nullptr, 0);
    EXPECT_EQ(chan.bytesReceived(), 0u);
    EXPECT_THROW(chan.recvBit(), std::runtime_error);
}

TEST(Channel, LargeTrafficReclaimsConsumedPrefix)
{
    Channel chan;
    std::vector<uint8_t> block(4096, 0xab);
    for (int i = 0; i < 64; ++i) {
        chan.sendBytes(block.data(), block.size());
        std::vector<uint8_t> got(block.size());
        chan.recvBytes(got.data(), got.size());
        EXPECT_EQ(got, block);
    }
    EXPECT_EQ(chan.pending(), 0u);
    EXPECT_EQ(chan.bytesSent(), 64 * block.size());
}

// ---------------------------------------------------------------------------
// StreamingGarbler (two-phase streaming)
// ---------------------------------------------------------------------------

TEST(StreamingGarbler, RunTwiceThrows)
{
    const Workload wl = makeMillionaire(4);
    StreamingGarbler sg(wl.netlist, 1);
    sg.run([](const GarbledTable &) {});
    EXPECT_THROW(sg.run([](const GarbledTable &) {}),
                 std::logic_error);
}

// ---------------------------------------------------------------------------
// Remote protocol: exact accounting and the session-shape goldens
// ---------------------------------------------------------------------------

TEST(Remote, AdderMatchesAcrossSegmentSizes)
{
    const Netlist nl = adderCircuit(16);
    const std::vector<bool> a = u64ToBits(12345, 16);
    const std::vector<bool> b = u64ToBits(54321, 16);
    // Segment boundaries: 1 table/frame, a ragged size, larger than
    // the whole circuit.
    for (uint32_t segment : {1u, 3u, 1u << 20}) {
        SCOPED_TRACE("segment=" + std::to_string(segment));
        expectExactAccounting(nl, a, b, 7, segment);
    }
}

TEST(Remote, SegmentCountMatchesTableMath)
{
    const Netlist nl = adderCircuit(16);
    const uint32_t ands = nl.numAndGates();
    ASSERT_GT(ands, 2u);
    const std::vector<bool> a = u64ToBits(1, 16);
    const std::vector<bool> b = u64ToBits(2, 16);

    auto [g1, e1] = runRemotePair(nl, a, b, 7, 1);
    EXPECT_EQ(g1.tableSegments, ands);
    auto [g2, e2] = runRemotePair(nl, a, b, 7, 1u << 20);
    EXPECT_EQ(g2.tableSegments, 1u);
    const uint32_t half = (ands + 1) / 2;
    auto [g3, e3] = runRemotePair(nl, a, b, 7, half);
    EXPECT_EQ(g3.tableSegments, (ands + half - 1) / half);
}

TEST(Remote, EvaluatorReportsTheGarblersSegmentSize)
{
    // The garbler's setting shapes the stream; the evaluator learns it
    // from the fingerprint and must report that, not its own option.
    const Netlist nl = adderCircuit(16);
    auto [gend, eend] = LoopbackTransport::createPair();
    RemoteOptions gopts;
    gopts.segmentTables = 2;
    RemoteOptions eopts;
    eopts.segmentTables = 999; // deliberately different
    RemoteResult gres;
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        gres = runRemoteGarbler(nl, u64ToBits(5, 16), *t, 7, gopts);
    });
    eend->handshake(PeerRole::Evaluator);
    const RemoteResult eres =
        runRemoteEvaluator(nl, u64ToBits(6, 16), *eend, eopts);
    garbler.join();
    EXPECT_EQ(gres.segmentTables, 2u);
    EXPECT_EQ(eres.segmentTables, 2u);
    EXPECT_EQ(eres.tableSegments, gres.tableSegments);
}

TEST(Remote, XorOnlyCircuitStreamsZeroTables)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    Bits out(8);
    for (int i = 0; i < 8; ++i)
        out[i] = cb.xorGate(a[i], b[i]);
    cb.addOutputs(out);
    const Netlist nl = cb.build();
    ASSERT_EQ(nl.numAndGates(), 0u);

    const std::vector<bool> ga = u64ToBits(0xa5, 8);
    const std::vector<bool> eb = u64ToBits(0x3c, 8);
    expectExactAccounting(nl, ga, eb, 3, 4);
}

TEST(Remote, ZeroGateCircuitWorks)
{
    // Outputs wired straight to inputs: no gates at all.
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(a);
    cb.addOutput(b);
    const Netlist nl = cb.build();
    ASSERT_EQ(nl.numGates(), 0u);
    expectExactAccounting(nl, {true}, {false}, 11, 8);
}

TEST(Remote, CircuitMismatchFailsBothSides)
{
    const Netlist lhs = adderCircuit(8);
    const Netlist rhs = adderCircuit(16); // different shape
    auto [gend, eend] = LoopbackTransport::createPair();
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        EXPECT_THROW(runRemoteGarbler(lhs, u64ToBits(0, 8), *t, 1),
                     NetError);
    });
    eend->handshake(PeerRole::Evaluator);
    try {
        runRemoteEvaluator(rhs, u64ToBits(0, 16), *eend);
        FAIL() << "expected mismatch";
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("mismatch"),
                  std::string::npos);
    }
    eend.reset(); // hang up so the garbler unblocks
    garbler.join();
}

TEST(Remote, WrongInputCountThrows)
{
    const Netlist nl = adderCircuit(8);
    auto [gend, eend] = LoopbackTransport::createPair();
    EXPECT_THROW(runRemoteGarbler(nl, u64ToBits(0, 4), *gend, 1),
                 std::invalid_argument);
    EXPECT_THROW(runRemoteEvaluator(nl, u64ToBits(0, 4), *eend),
                 std::invalid_argument);
}

namespace {

/**
 * One session over recording loopback ends, garbling inline at the
 * default seed or replaying @p instance; {garbler row, evaluator row}.
 */
std::vector<std::string>
goldenRows(const std::string &name, const Workload &wl,
           const GarbledInstance *instance)
{
    auto [gend, eend] = LoopbackTransport::createPair();
    golden::RecordingTransport g(*gend), e(*eend);
    RemoteResult gres;
    PeerThread garbler([&] {
        gres = instance != nullptr
                   ? runRemoteGarbler(wl.netlist, wl.garblerBits, g,
                                      *instance)
                   : runRemoteGarbler(wl.netlist, wl.garblerBits, g,
                                      0x4841414331ull);
    });
    const RemoteResult eres =
        runRemoteEvaluator(wl.netlist, wl.evaluatorBits, e);
    garbler.join();
    const std::vector<bool> want =
        wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    EXPECT_EQ(gres.outputs, want) << name;
    EXPECT_EQ(eres.outputs, want) << name;
    return {golden::sessionRow(name, true, gres, g),
            golden::sessionRow(name, false, eres, e)};
}

/**
 * Recorded on the runners before they shared one session shape:
 * wl inline (seed 0x4841414331) then wl pooled (instance captured at
 * seed 0x5EED), garbler row before evaluator row.
 */
const char *const kRemoteGolden[] = {
    "BubbSt inline garbler: table=2346240 input=12288 ot=28688 up=14400 "
    "decode=1536 link=0/0 total=2388752 control=1574 segs=72 "
    "raw=2389102/15948 frames=78/3 lens=f9b021b20c6c3416/2c3a898cccdb8ccb "
    "post=861fb7e2e7c5018b",
    "BubbSt inline evaluator: table=2346240 input=12288 ot=28688 up=14400 "
    "decode=1536 link=0/0 total=2388752 control=1574 segs=72 "
    "raw=15948/2389102 frames=3/78 lens=2c3a898cccdb8ccb/f9b021b20c6c3416 "
    "post=861fb7e2e7c5018b",
    "BubbSt pooled garbler: table=2346240 input=12288 ot=28688 up=14400 "
    "decode=1536 link=0/0 total=2388752 control=1574 segs=72 "
    "raw=2389102/15948 frames=78/3 lens=f9b021b20c6c3416/2c3a898cccdb8ccb "
    "post=0fe279d8d592faf4",
    "BubbSt pooled evaluator: table=2346240 input=12288 ot=28688 up=14400 "
    "decode=1536 link=0/0 total=2388752 control=1574 segs=72 "
    "raw=15948/2389102 frames=3/78 lens=2c3a898cccdb8ccb/f9b021b20c6c3416 "
    "post=0fe279d8d592faf4",
    "DotProd inline garbler: table=1080320 input=16384 ot=36880 up=18496 "
    "decode=32 link=0/0 total=1133616 control=70 segs=33 raw=1133810/18540 "
    "frames=39/3 lens=6f01594ff5c64817/0cc7ddfe56e7b2dd "
    "post=0c2f78f5ca1f1f60",
    "DotProd inline evaluator: table=1080320 input=16384 ot=36880 up=18496 "
    "decode=32 link=0/0 total=1133616 control=70 segs=33 raw=18540/1133810 "
    "frames=3/39 lens=0cc7ddfe56e7b2dd/6f01594ff5c64817 "
    "post=0c2f78f5ca1f1f60",
    "DotProd pooled garbler: table=1080320 input=16384 ot=36880 up=18496 "
    "decode=32 link=0/0 total=1133616 control=70 segs=33 raw=1133810/18540 "
    "frames=39/3 lens=6f01594ff5c64817/0cc7ddfe56e7b2dd "
    "post=8ead4ddca6f981c4",
    "DotProd pooled evaluator: table=1080320 input=16384 ot=36880 up=18496 "
    "decode=32 link=0/0 total=1133616 control=70 segs=33 raw=18540/1133810 "
    "frames=3/39 lens=0cc7ddfe56e7b2dd/6f01594ff5c64817 "
    "post=8ead4ddca6f981c4",
    "Merse inline garbler: table=2955264 input=161280 ot=323600 up=161856 "
    "decode=39936 link=0/0 total=3480080 control=39974 segs=91 "
    "raw=3480562/201812 frames=111/5 lens=c20af25ebb354719/c0cdd39aabeceb2b "
    "post=2127cbfdc9c054a8",
    "Merse inline evaluator: table=2955264 input=161280 ot=323600 up=161856 "
    "decode=39936 link=0/0 total=3480080 control=39974 segs=91 "
    "raw=201812/3480562 frames=5/111 lens=c0cdd39aabeceb2b/c20af25ebb354719 "
    "post=2127cbfdc9c054a8",
    "Merse pooled garbler: table=2955264 input=161280 ot=323600 up=161856 "
    "decode=39936 link=0/0 total=3480080 control=39974 segs=91 "
    "raw=3480562/201812 frames=111/5 lens=c20af25ebb354719/c0cdd39aabeceb2b "
    "post=e7e8e2111a60a657",
    "Merse pooled evaluator: table=2955264 input=161280 ot=323600 up=161856 "
    "decode=39936 link=0/0 total=3480080 control=39974 segs=91 "
    "raw=201812/3480562 frames=5/111 lens=c0cdd39aabeceb2b/c20af25ebb354719 "
    "post=e7e8e2111a60a657",
    "Triangle inline garbler: table=1273600 input=6240 ot=16592 up=10304 "
    "decode=14 link=0/0 total=1296446 control=52 segs=39 raw=1296664/10330 "
    "frames=45/3 lens=e07988a390d703b4/cb40fa946ef4f973 "
    "post=07217766e2741822",
    "Triangle inline evaluator: table=1273600 input=6240 ot=16592 up=10304 "
    "decode=14 link=0/0 total=1296446 control=52 segs=39 raw=10330/1296664 "
    "frames=3/45 lens=cb40fa946ef4f973/e07988a390d703b4 "
    "post=07217766e2741822",
    "Triangle pooled garbler: table=1273600 input=6240 ot=16592 up=10304 "
    "decode=14 link=0/0 total=1296446 control=52 segs=39 raw=1296664/10330 "
    "frames=45/3 lens=e07988a390d703b4/cb40fa946ef4f973 "
    "post=507c1fb75b81e44c",
    "Triangle pooled evaluator: table=1273600 input=6240 ot=16592 up=10304 "
    "decode=14 link=0/0 total=1296446 control=52 segs=39 raw=10330/1296664 "
    "frames=3/45 lens=cb40fa946ef4f973/e07988a390d703b4 "
    "post=507c1fb75b81e44c",
    "Hamm inline garbler: table=523808 input=131072 ot=266256 up=133184 "
    "decode=14 link=0/0 total=921150 control=52 segs=16 raw=921316/133214 "
    "frames=32/4 lens=9a63a34a960c9893/738011a9a2a384b1 "
    "post=3c0022ab5604e63c",
    "Hamm inline evaluator: table=523808 input=131072 ot=266256 up=133184 "
    "decode=14 link=0/0 total=921150 control=52 segs=16 raw=133214/921316 "
    "frames=4/32 lens=738011a9a2a384b1/9a63a34a960c9893 "
    "post=3c0022ab5604e63c",
    "Hamm pooled garbler: table=523808 input=131072 ot=266256 up=133184 "
    "decode=14 link=0/0 total=921150 control=52 segs=16 raw=921316/133214 "
    "frames=32/4 lens=9a63a34a960c9893/738011a9a2a384b1 "
    "post=239a7addc46e8ef7",
    "Hamm pooled evaluator: table=523808 input=131072 ot=266256 up=133184 "
    "decode=14 link=0/0 total=921150 control=52 segs=16 raw=133214/921316 "
    "frames=4/32 lens=738011a9a2a384b1/9a63a34a960c9893 "
    "post=239a7addc46e8ef7",
    "MatMult inline garbler: table=2146304 input=8192 ot=20496 up=10304 "
    "decode=512 link=0/0 total=2175504 control=550 segs=66 "
    "raw=2175830/10828 frames=72/3 lens=cbd8104620b01979/f9b8bce7c33e59c7 "
    "post=dd04f84e4b7e276a",
    "MatMult inline evaluator: table=2146304 input=8192 ot=20496 up=10304 "
    "decode=512 link=0/0 total=2175504 control=550 segs=66 "
    "raw=10828/2175830 frames=3/72 lens=f9b8bce7c33e59c7/cbd8104620b01979 "
    "post=dd04f84e4b7e276a",
    "MatMult pooled garbler: table=2146304 input=8192 ot=20496 up=10304 "
    "decode=512 link=0/0 total=2175504 control=550 segs=66 "
    "raw=2175830/10828 frames=72/3 lens=cbd8104620b01979/f9b8bce7c33e59c7 "
    "post=9213f786d6559b00",
    "MatMult pooled evaluator: table=2146304 input=8192 ot=20496 up=10304 "
    "decode=512 link=0/0 total=2175504 control=550 segs=66 "
    "raw=10828/2175830 frames=3/72 lens=f9b8bce7c33e59c7/cbd8104620b01979 "
    "post=9213f786d6559b00",
    "ReLU inline garbler: table=524288 input=131072 ot=266256 up=133184 "
    "decode=16384 link=0/0 total=938000 control=16422 segs=16 "
    "raw=938166/149584 frames=32/4 lens=af31be13cc90ece3/08d6ba1d1f9429df "
    "post=0ace05b5aa96b27e",
    "ReLU inline evaluator: table=524288 input=131072 ot=266256 up=133184 "
    "decode=16384 link=0/0 total=938000 control=16422 segs=16 "
    "raw=149584/938166 frames=4/32 lens=08d6ba1d1f9429df/af31be13cc90ece3 "
    "post=0ace05b5aa96b27e",
    "ReLU pooled garbler: table=524288 input=131072 ot=266256 up=133184 "
    "decode=16384 link=0/0 total=938000 control=16422 segs=16 "
    "raw=938166/149584 frames=32/4 lens=af31be13cc90ece3/08d6ba1d1f9429df "
    "post=d6d1b3c10da0ce3d",
    "ReLU pooled evaluator: table=524288 input=131072 ot=266256 up=133184 "
    "decode=16384 link=0/0 total=938000 control=16422 segs=16 "
    "raw=149584/938166 frames=4/32 lens=08d6ba1d1f9429df/af31be13cc90ece3 "
    "post=d6d1b3c10da0ce3d",
    "GradDesc inline garbler: table=3543808 input=2048 ot=8208 up=4160 "
    "decode=64 link=0/0 total=3554128 control=102 segs=109 raw=3554626/4236 "
    "frames=115/3 lens=8aeede76b985eef6/e1ccd47fb1009c05 "
    "post=e9d98b37d16443e4",
    "GradDesc inline evaluator: table=3543808 input=2048 ot=8208 up=4160 "
    "decode=64 link=0/0 total=3554128 control=102 segs=109 raw=4236/3554626 "
    "frames=3/115 lens=e1ccd47fb1009c05/8aeede76b985eef6 "
    "post=e9d98b37d16443e4",
    "GradDesc pooled garbler: table=3543808 input=2048 ot=8208 up=4160 "
    "decode=64 link=0/0 total=3554128 control=102 segs=109 raw=3554626/4236 "
    "frames=115/3 lens=8aeede76b985eef6/e1ccd47fb1009c05 "
    "post=565d39b94e0e74b4",
    "GradDesc pooled evaluator: table=3543808 input=2048 ot=8208 up=4160 "
    "decode=64 link=0/0 total=3554128 control=102 segs=109 raw=4236/3554626 "
    "frames=3/115 lens=e1ccd47fb1009c05/8aeede76b985eef6 "
    "post=565d39b94e0e74b4",
    "Million-32 inline garbler: table=1024 input=512 ot=5136 up=4160 "
    "decode=1 link=0/0 total=6673 control=39 segs=1 raw=6739/4173 "
    "frames=7/3 lens=0979749156c9c958/407d2a8ce83a03b4 "
    "post=55e5708bb63a857b",
    "Million-32 inline evaluator: table=1024 input=512 ot=5136 up=4160 "
    "decode=1 link=0/0 total=6673 control=39 segs=1 raw=4173/6739 "
    "frames=3/7 lens=407d2a8ce83a03b4/0979749156c9c958 "
    "post=55e5708bb63a857b",
    "Million-32 pooled garbler: table=1024 input=512 ot=5136 up=4160 "
    "decode=1 link=0/0 total=6673 control=39 segs=1 raw=6739/4173 "
    "frames=7/3 lens=0979749156c9c958/407d2a8ce83a03b4 "
    "post=e87c291d85039251",
    "Million-32 pooled evaluator: table=1024 input=512 ot=5136 up=4160 "
    "decode=1 link=0/0 total=6673 control=39 segs=1 raw=4173/6739 "
    "frames=3/7 lens=407d2a8ce83a03b4/0979749156c9c958 "
    "post=e87c291d85039251",
    "Mult-8 inline garbler: table=3840 input=128 ot=4368 up=4160 decode=16 "
    "link=0/0 total=8352 control=54 segs=1 raw=8418/4188 frames=7/3 "
    "lens=f923529f5001d99d/e0cd160fdb13f735 post=e807d6f8e1705262",
    "Mult-8 inline evaluator: table=3840 input=128 ot=4368 up=4160 "
    "decode=16 link=0/0 total=8352 control=54 segs=1 raw=4188/8418 "
    "frames=3/7 lens=e0cd160fdb13f735/f923529f5001d99d "
    "post=e807d6f8e1705262",
    "Mult-8 pooled garbler: table=3840 input=128 ot=4368 up=4160 decode=16 "
    "link=0/0 total=8352 control=54 segs=1 raw=8418/4188 frames=7/3 "
    "lens=f923529f5001d99d/e0cd160fdb13f735 post=5bf835b2c7c610d4",
    "Mult-8 pooled evaluator: table=3840 input=128 ot=4368 up=4160 "
    "decode=16 link=0/0 total=8352 control=54 segs=1 raw=4188/8418 "
    "frames=3/7 lens=e0cd160fdb13f735/f923529f5001d99d "
    "post=5bf835b2c7c610d4",
};

} // namespace

TEST(Remote, SessionShapeGolden)
{
    // Every byte category, frame boundary and post-OT garbler byte of
    // the monolithic session, inline and replayed, on both sides.
    std::vector<Workload> fleet;
    for (const std::string &name : vipNames())
        fleet.push_back(vipWorkload(name, false));
    fleet.push_back(resolveWorkload("Million:32"));
    fleet.push_back(resolveWorkload("Mult:8"));

    std::vector<std::string> rows;
    for (const Workload &wl : fleet) {
        const GarbledInstance inst = captureGarbling(wl.netlist, 0x5EED);
        for (const GarbledInstance *src : {(const GarbledInstance *)nullptr,
                                           &inst}) {
            const std::string name =
                wl.name + (src != nullptr ? " pooled" : " inline");
            for (std::string &row : goldenRows(name, wl, src))
                rows.push_back(std::move(row));
        }
    }
    ASSERT_EQ(rows.size(), std::size(kRemoteGolden)) << [&] {
        std::string all;
        for (const std::string &row : rows)
            all += "    \"" + row + "\",\n";
        return all;
    }();
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], kRemoteGolden[i]);
}

namespace {

/** Fingerprint layout (remote.cc): the evaluator's 38-byte view. */
constexpr size_t kFingerprintBytes = 38;

/** Read the garbler's fingerprint as a hand-rolled evaluator. */
std::vector<uint8_t>
readFingerprint(Transport &transport)
{
    NetChannel chan(transport, 256);
    std::vector<uint8_t> fp(kFingerprintBytes);
    chan.recvBytes(fp.data(), fp.size());
    return fp;
}

uint32_t
fingerprintU32(const std::vector<uint8_t> &fp, size_t at)
{
    uint32_t v = 0;
    for (size_t i = 0; i < 4; ++i)
        v |= uint32_t(fp[at + i]) << (8 * i);
    return v;
}

/**
 * A hand-rolled garbler sends a well-shaped fingerprint for @p nl
 * carrying @p ot_mode / @p ot_cached / @p reserved and nothing else.
 * The evaluator must throw NetError and hang up without sending a byte
 * back: no base-OT key, no choice columns.
 */
void
expectEvaluatorRefusesOtFlags(uint8_t ot_mode, uint8_t ot_cached,
                              uint64_t reserved = 0)
{
    const Netlist nl = adderCircuit(4);
    auto [gend, eend] = LoopbackTransport::createPair();
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        WireWriter w;
        w.u32(nl.numGarblerInputs);
        w.u32(nl.numEvaluatorInputs);
        w.u32(nl.numGates());
        w.u32(nl.numAndGates());
        w.u32(uint32_t(nl.outputs.size()));
        w.u32(nl.constOne);
        w.u64(reserved);
        w.u32(1024);
        w.u8(ot_mode);
        w.u8(ot_cached);
        t->sendFrame(w.bytes());
        EXPECT_THROW(t->recvFrame(), NetError)
            << "the evaluator answered a bad fingerprint";
    });
    eend->handshake(PeerRole::Evaluator);
    OtConnectionCache cache;
    RemoteOptions opts;
    opts.otCache = &cache;
    try {
        runRemoteEvaluator(nl, u64ToBits(9, 4), *eend, opts);
        ADD_FAILURE() << "evaluator accepted otMode " << int(ot_mode)
                      << " otCached " << int(ot_cached) << " reserved "
                      << reserved;
    } catch (const NetError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << e.what();
    }
    eend.reset(); // hang up
    garbler.join();
}

} // namespace

TEST(Remote, FingerprintLayoutOnTheWire)
{
    // An IKNP garbler's fingerprint, byte for byte: the shape fields,
    // a zero reserved u64, segmentTables, otMode = 1, and the otCached
    // flag — 0 on a fresh connection, 1 once the connection holds a
    // base-OT setup.
    const Netlist nl = adderCircuit(4);
    auto [gend, eend] = LoopbackTransport::createPair();
    OtConnectionCache gcache, ecache;
    RemoteOptions gopts, eopts;
    gopts.segmentTables = 77;
    gopts.otCache = &gcache;
    eopts.otCache = &ecache;

    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        runRemoteGarbler(nl, u64ToBits(3, 4), *t, 1, gopts);
        // Session two dies on the hand-rolled evaluator's hang-up.
        EXPECT_THROW(runRemoteGarbler(nl, u64ToBits(3, 4), *t, 2, gopts),
                     NetError);
    });
    eend->handshake(PeerRole::Evaluator);
    // Session one runs for real (and fills both caches); a second
    // garbler on a fresh connection shows the uncached byte.
    runRemoteEvaluator(nl, u64ToBits(9, 4), *eend, eopts);
    const std::vector<uint8_t> cached = readFingerprint(*eend);
    eend.reset();
    garbler.join();

    RemoteOptions fresh_opts;
    fresh_opts.segmentTables = 77;
    auto [g2, e2] = LoopbackTransport::createPair();
    PeerThread fresh_garbler([&, t = std::move(g2)] {
        t->handshake(PeerRole::Garbler);
        EXPECT_THROW(
            runRemoteGarbler(nl, u64ToBits(3, 4), *t, 3, fresh_opts),
            NetError);
    });
    e2->handshake(PeerRole::Evaluator);
    const std::vector<uint8_t> fresh = readFingerprint(*e2);
    e2.reset();
    fresh_garbler.join();

    for (const std::vector<uint8_t> *fp : {&cached, &fresh}) {
        EXPECT_EQ(fingerprintU32(*fp, 0), nl.numGarblerInputs);
        EXPECT_EQ(fingerprintU32(*fp, 4), nl.numEvaluatorInputs);
        EXPECT_EQ(fingerprintU32(*fp, 8), nl.numGates());
        EXPECT_EQ(fingerprintU32(*fp, 12), nl.numAndGates());
        EXPECT_EQ(fingerprintU32(*fp, 16), nl.outputs.size());
        EXPECT_EQ(fingerprintU32(*fp, 20), nl.constOne);
        for (size_t i = 24; i < 32; ++i)
            EXPECT_EQ((*fp)[i], 0) << "reserved byte " << i;
        EXPECT_EQ(fingerprintU32(*fp, 32), 77u);
        EXPECT_EQ((*fp)[36], 1) << "otMode byte must say IKNP";
    }
    EXPECT_EQ(cached[37], 1);
    EXPECT_EQ(fresh[37], 0);
}

TEST(Remote, EvaluatorRefusesUnknownOtFlags)
{
    // A peer still speaking the removed simulated OT (otMode 0), an
    // unknown OT mode, a non-boolean otCached byte, and a non-zero
    // reserved field (a table order this build cannot walk) all fail
    // on the fingerprint, before any label moves.
    expectEvaluatorRefusesOtFlags(0, 0);
    expectEvaluatorRefusesOtFlags(2, 0);
    expectEvaluatorRefusesOtFlags(1, 2);
    expectEvaluatorRefusesOtFlags(1, 0, 1);
    expectEvaluatorRefusesOtFlags(1, 0, 0x8000000000000000ull);
}

TEST(Remote, TamperedBaseOtKeyFailsTheGarbler)
{
    // A corrupted base-OT public key must fail the session loudly.
    const Netlist nl = adderCircuit(4);
    auto [gend, eend] = LoopbackTransport::createPair();
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        EXPECT_THROW(
            runRemoteGarbler(nl, u64ToBits(3, 4), *t, 1, {}),
            OtError);
    });
    eend->handshake(PeerRole::Evaluator);
    {
        NetChannel chan(*eend, 256);
        uint8_t fp[38];
        chan.recvBytes(fp, sizeof(fp));
        uint8_t junk[32] = {2}; // off-curve encoding
        chan.sendBytes(junk, sizeof(junk));
        chan.flush();
    }
    eend.reset(); // hang up
    garbler.join();
}

TEST(Remote, BaseOtCacheSkipsTheBasePhaseOnSessionTwo)
{
    // Two sequential sessions over one connection, both sides holding
    // an OtConnectionCache: session two must skip the Chou-Orlandi
    // base phase exactly — 4096 B of base-OT downlink (128 points of
    // 32 B) and the 32 B evaluator seed-commit uplink — while staying
    // bit-correct.
    const Netlist nl = adderCircuit(8);
    const std::vector<bool> gbits = u64ToBits(55, 8);
    const std::vector<bool> ebits = u64ToBits(200, 8);
    const std::vector<bool> expected = nl.evaluate(gbits, ebits);

    auto [gend, eend] = LoopbackTransport::createPair();
    OtConnectionCache gcache, ecache;
    RemoteOptions gopts, eopts;
    gopts.otCache = &gcache;
    eopts.otCache = &ecache;

    RemoteResult g1, g2;
    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        g1 = runRemoteGarbler(nl, gbits, *t, 11, gopts);
        g2 = runRemoteGarbler(nl, gbits, *t, 12, gopts);
    });
    eend->handshake(PeerRole::Evaluator);
    const RemoteResult e1 = runRemoteEvaluator(nl, ebits, *eend, eopts);
    const RemoteResult e2 = runRemoteEvaluator(nl, ebits, *eend, eopts);
    garbler.join();

    EXPECT_EQ(e1.outputs, expected);
    EXPECT_EQ(e2.outputs, expected);
    EXPECT_EQ(g2.outputs, expected);

    EXPECT_FALSE(g1.otSetupReused);
    EXPECT_FALSE(e1.otSetupReused);
    EXPECT_TRUE(g2.otSetupReused);
    EXPECT_TRUE(e2.otSetupReused);

    // The saved traffic is exactly the base phase, nothing else.
    EXPECT_EQ(g2.otBytes, g1.otBytes - 4096);
    EXPECT_EQ(g2.otUplinkBytes, g1.otUplinkBytes - 32);
    EXPECT_EQ(e2.otBytes, e1.otBytes - 4096);
    EXPECT_EQ(e2.otUplinkBytes, e1.otUplinkBytes - 32);
    EXPECT_EQ(g2.tableBytes, g1.tableBytes);
    EXPECT_EQ(g2.inputLabelBytes, g1.inputLabelBytes);
}

TEST(Remote, CachedGarblerRejectsACachelessEvaluator)
{
    // The garbler announces base-OT reuse in the fingerprint; an
    // evaluator without the matching cached receiver state cannot run
    // the extension and must refuse the session, not limp through it.
    const Netlist nl = adderCircuit(4);
    auto [gend, eend] = LoopbackTransport::createPair();
    OtConnectionCache gcache, ecache;
    RemoteOptions gopts, eopts;
    gopts.otCache = &gcache;
    eopts.otCache = &ecache;

    PeerThread garbler([&, t = std::move(gend)] {
        t->handshake(PeerRole::Garbler);
        runRemoteGarbler(nl, u64ToBits(3, 4), *t, 1, gopts);
        // Session two announces otCached; the evaluator bails before
        // sending anything, so the garbler dies on the dead pipe.
        EXPECT_THROW(
            runRemoteGarbler(nl, u64ToBits(3, 4), *t, 2, gopts),
            NetError);
    });
    eend->handshake(PeerRole::Evaluator);
    runRemoteEvaluator(nl, u64ToBits(9, 4), *eend, eopts);
    EXPECT_THROW(runRemoteEvaluator(nl, u64ToBits(9, 4), *eend, {}),
                 NetError);
    eend.reset(); // hang up so the garbler's second session unblocks
    garbler.join();
}

// ---------------------------------------------------------------------------
// RemoteGcBackend / Session integration
// ---------------------------------------------------------------------------

TEST(RemoteBackend, RegisteredInTheBackendRegistry)
{
    EXPECT_STREQ(createBackend("remote-gc")->name(), "remote-gc");
}

TEST(RemoteBackend, NeedsAnEndpointOrTransport)
{
    const Workload wl = makeMillionaire(8);
    Session session(wl);
    EXPECT_THROW(session.run("remote-gc"), std::invalid_argument);
}

TEST(RemoteBackend, LoopbackPairMatchesSoftwareGcReport)
{
    const Workload wl = makeMillionaire(32);
    Session session(wl);
    const RunReport reference = session.run("software-gc");

    auto [gend, eend] = LoopbackTransport::createPair();
    RunReport greport;
    PeerThread garbler([&, t = std::move(gend)]() mutable {
        RemoteGcBackend backend(std::move(t), Role::Garbler);
        Session gsession(wl);
        greport = gsession.run(backend);
    });
    RemoteGcBackend backend(std::move(eend), Role::Evaluator);
    RunReport ereport = session.run(backend);
    garbler.join();

    for (const RunReport *r : {&greport, &ereport}) {
        EXPECT_EQ(r->backend, "remote-gc");
        EXPECT_TRUE(r->hasOutputs);
        EXPECT_TRUE(r->hasComm);
        EXPECT_TRUE(r->hasNet);
        EXPECT_EQ(r->outputs, reference.outputs);
        EXPECT_EQ(r->comm.tableBytes, reference.comm.tableBytes);
        EXPECT_EQ(r->comm.inputLabelBytes,
                  reference.comm.inputLabelBytes);
        EXPECT_EQ(r->comm.otBytes, reference.comm.otBytes);
        EXPECT_EQ(r->comm.outputDecodeBytes,
                  reference.comm.outputDecodeBytes);
        EXPECT_EQ(r->comm.totalBytes, reference.comm.totalBytes);
        EXPECT_EQ(r->net.gates, wl.netlist.numGates());
    }
    EXPECT_EQ(greport.net.role, Role::Garbler);
    EXPECT_EQ(ereport.net.role, Role::Evaluator);
    // Raw wire bytes: payload plus framing (4 B/frame) plus the 8 B
    // hello — strictly more than payload, and symmetric across the
    // two endpoints' views of the same stream.
    EXPECT_GT(greport.net.rawBytesSent, greport.comm.totalBytes);
    EXPECT_EQ(greport.net.rawBytesSent, ereport.net.rawBytesReceived);
    EXPECT_EQ(ereport.net.rawBytesSent, greport.net.rawBytesReceived);
}

// ---------------------------------------------------------------------------
// TCP transport (skipped when the sandbox forbids sockets)
// ---------------------------------------------------------------------------

namespace {

std::unique_ptr<TcpListener>
tryListen()
{
    try {
        return std::make_unique<TcpListener>(0, "127.0.0.1");
    } catch (const NetError &) {
        return nullptr;
    }
}

} // namespace

TEST(Tcp, FrameAndHandshakeRoundtrip)
{
    auto listener = tryListen();
    if (!listener)
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";

    PeerThread server([&] {
        auto conn = listener->accept();
        EXPECT_EQ(conn->handshake(PeerRole::Evaluator),
                  PeerRole::Garbler);
        const std::vector<uint8_t> got = conn->recvFrame();
        conn->sendFrame(got); // echo
    });

    auto client = TcpTransport::connect("127.0.0.1", listener->port());
    EXPECT_EQ(client->handshake(PeerRole::Garbler),
              PeerRole::Evaluator);
    const std::vector<uint8_t> payload = {9, 8, 7, 6};
    client->sendFrame(payload);
    EXPECT_EQ(client->recvFrame(), payload);
    server.join();
}

TEST(Tcp, RemoteMillionairesOverRealSockets)
{
    auto listener = tryListen();
    if (!listener)
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";

    const Workload wl = makeMillionaire(16);
    const RemoteResult ref = runProtocol(wl.netlist, wl.garblerBits,
                                         wl.evaluatorBits, 5);
    RemoteResult gres;
    PeerThread garbler([&] {
        auto conn = listener->accept();
        conn->handshake(PeerRole::Garbler);
        gres = runRemoteGarbler(wl.netlist, wl.garblerBits, *conn, 5);
    });
    auto client = TcpTransport::connect("127.0.0.1", listener->port());
    client->handshake(PeerRole::Evaluator);
    const RemoteResult eres =
        runRemoteEvaluator(wl.netlist, wl.evaluatorBits, *client);
    garbler.join();

    EXPECT_EQ(eres.outputs, ref.outputs);
    EXPECT_EQ(gres.outputs, ref.outputs);
    EXPECT_EQ(eres.totalBytes, ref.totalBytes);
    EXPECT_EQ(gres.totalBytes, ref.totalBytes);
}

TEST(Tcp, ConnectDeadlineIsBounded)
{
    // Grab an ephemeral port, close the listener, then connect to the
    // now-dead port: every attempt is refused, the retry loop keeps
    // trying for a not-yet-listening peer, and the deadline must cut
    // it off close to connectTimeoutMs — never the kernel's
    // minutes-long ceiling (the filtered-host case rides the same
    // poll()-bounded path).
    auto listener = tryListen();
    if (!listener)
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";
    const uint16_t dead_port = listener->port();
    listener.reset();

    TcpOptions opts;
    opts.connectTimeoutMs = 300;
    const auto start = std::chrono::steady_clock::now();
    try {
        auto t = TcpTransport::connect("127.0.0.1", dead_port, opts);
        // Some sandboxes proxy loopback and accept anything; then
        // the deadline has nothing to cut off.
        GTEST_SKIP() << "sandbox accepted a connection to a dead port";
    } catch (const NetError &) {
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_GE(elapsed, 0.25) << "gave up before the deadline";
    EXPECT_LT(elapsed, 5.0) << "connect ignored its deadline";
}

TEST(Tcp, RecvTimesOutWithoutAPeer)
{
    auto listener = tryListen();
    if (!listener)
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";

    PeerThread server([&] {
        auto conn = listener->accept();
        // Hold the connection open, send nothing.
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
    });
    TcpOptions opts;
    opts.ioTimeoutMs = 100;
    auto client =
        TcpTransport::connect("127.0.0.1", listener->port(), opts);
    uint8_t byte = 0;
    EXPECT_THROW(client->readAll(&byte, 1), NetError);
    server.join();
}

// ---------------------------------------------------------------------------
// The table phase: segment frames, I/O threads, and their failures
// ---------------------------------------------------------------------------

namespace {

/**
 * Exactly @p ands AND gates in one dependent chain (each AND reads the
 * two before it, so none merges with another), over 8 + 8 inputs, the
 * last eight chain wires as outputs.
 */
Netlist
andChain(uint32_t ands)
{
    CircuitBuilder cb;
    const Bits a = cb.garblerInputs(8);
    const Bits b = cb.evaluatorInputs(8);
    Bits chain = {a[0], b[0]};
    for (uint32_t i = 0; i < ands; ++i) {
        const size_t n = chain.size();
        chain.push_back(cb.andGate(cb.xorGate(chain[n - 1], a[i % 8]),
                                   cb.xorGate(chain[n - 2], b[i % 8])));
    }
    cb.addOutputs(Bits(chain.end() - std::min<size_t>(8, chain.size()),
                       chain.end()));
    return cb.build();
}

/** Threads of this process (Linux; 0 where /proc is not there). */
size_t
processThreads()
{
    size_t n = 0;
#if defined(__linux__)
    if (DIR *dir = opendir("/proc/self/task")) {
        while (const dirent *e = readdir(dir))
            n += e->d_name[0] != '.' ? 1 : 0;
        closedir(dir);
    }
#endif
    return n;
}

/**
 * processThreads() once it is down to @p expected, or after a second:
 * a joined thread's /proc entry can outlive the join by a moment.
 */
size_t
settledThreads(size_t expected)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    size_t n = processThreads();
    while (n > expected && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        n = processThreads();
    }
    return n;
}

/**
 * Forwards to an owned transport until @p write_budget bytes went out
 * (or @p read_budget came in), then closes it mid-call and fails: a
 * peer dying part-way through a session.
 */
class CutTransport : public Transport
{
  public:
    CutTransport(std::unique_ptr<Transport> inner, uint64_t write_budget,
                 uint64_t read_budget)
        : inner_(std::move(inner)), writeLeft_(write_budget),
          readLeft_(read_budget)
    {}

    void
    writeAll(const uint8_t *data, size_t n) override
    {
        if (inner_ && n > writeLeft_) {
            inner_->writeAll(data, size_t(writeLeft_));
            inner_.reset();
        }
        if (!inner_)
            throw NetError("cut: closed while writing");
        inner_->writeAll(data, n);
        writeLeft_ -= n;
    }

    void
    readAll(uint8_t *data, size_t n) override
    {
        if (inner_ && n > readLeft_) {
            inner_->readAll(data, size_t(readLeft_));
            inner_.reset();
        }
        if (!inner_)
            throw NetError("cut: closed while reading");
        inner_->readAll(data, n);
        readLeft_ -= n;
    }

    std::string describe() const override { return "cut"; }

  private:
    std::unique_ptr<Transport> inner_;
    uint64_t writeLeft_;
    uint64_t readLeft_;
};

/** One clean loopback session's raw garbler→evaluator bytes up to
 *  the middle of its table stream (handshake excluded). */
uint64_t
bytesToMidTables(const Netlist &nl, const std::vector<bool> &gbits,
                 const std::vector<bool> &ebits, uint32_t segment)
{
    auto [gend, eend] = LoopbackTransport::createPair();
    RemoteOptions opts;
    opts.segmentTables = segment;
    RemoteResult gres;
    PeerThread garbler([&, t = gend.get()] {
        t->handshake(PeerRole::Garbler);
        gres = runRemoteGarbler(nl, gbits, *t, 5, opts);
    });
    eend->handshake(PeerRole::Evaluator);
    runRemoteEvaluator(nl, ebits, *eend, opts);
    garbler.join();
    constexpr uint64_t kHello = 8, kHeader = 4;
    const uint64_t tables =
        gres.tableBytes + kHeader * gres.tableSegments;
    const uint64_t decode = gres.outputDecodeBytes + kHeader;
    return gend->rawBytesSent() - kHello - decode - tables / 2;
}

/**
 * A garbler (@p garbler_cuts) or an evaluator that closes its socket
 * half-way through a long table stream: both sides fail with a
 * NetError well inside the sockets' I/O timeout, and every thread the
 * session started has ended.
 */
void
expectMidStreamCloseFailsBothSides(bool garbler_cuts)
{
    auto listener = tryListen();
    if (!listener)
        GTEST_SKIP() << "TCP sockets unavailable in this sandbox";
    const Netlist nl = andChain(3000);
    const std::vector<bool> gbits = u64ToBits(0x5a, 8);
    const std::vector<bool> ebits = u64ToBits(0xc3, 8);
    constexpr uint32_t kSegment = 64; // 47 segments: both I/O threads
    const uint64_t cut = bytesToMidTables(nl, gbits, ebits, kSegment);

    TcpOptions tcp;
    tcp.ioTimeoutMs = 5000;
    RemoteOptions opts;
    opts.segmentTables = kSegment;
    const size_t threads_before = processThreads();
    const auto start = std::chrono::steady_clock::now();
    std::atomic<bool> garbler_failed{false};
    PeerThread garbler([&] {
        std::unique_ptr<Transport> conn = listener->accept(tcp);
        conn->handshake(PeerRole::Garbler);
        if (garbler_cuts)
            conn = std::make_unique<CutTransport>(std::move(conn), cut,
                                                  ~uint64_t(0));
        try {
            runRemoteGarbler(nl, gbits, *conn, 5, opts);
        } catch (const NetError &) {
            garbler_failed = true;
        }
    });
    std::unique_ptr<Transport> client =
        TcpTransport::connect("127.0.0.1", listener->port(), tcp);
    client->handshake(PeerRole::Evaluator);
    if (!garbler_cuts)
        client = std::make_unique<CutTransport>(std::move(client),
                                                ~uint64_t(0), cut);
    EXPECT_THROW(runRemoteEvaluator(nl, ebits, *client, opts), NetError);
    client.reset();
    garbler.join();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_TRUE(garbler_failed);
    EXPECT_LT(seconds, tcp.ioTimeoutMs / 1000.0);
    EXPECT_EQ(settledThreads(threads_before), threads_before);
}

} // namespace

TEST(Remote, PipelinedSessionsMatchClosedForms)
{
    // Streams of 0, 1, s, s + 1 and many ANDs at segment sizes s = 1,
    // 7 and 1024: no table frame, one short segment, exactly one full
    // segment (no I/O thread), the first stream that spans two (both
    // I/O threads start), and a long one.
    const std::vector<bool> gbits = u64ToBits(0x96, 8);
    const std::vector<bool> ebits = u64ToBits(0x3b, 8);
    for (uint32_t s : {1u, 7u, 1024u}) {
        for (uint32_t ands : {0u, 1u, s, s + 1, 2 * s + 3000}) {
            SCOPED_TRACE("segment=" + std::to_string(s) +
                         " ands=" + std::to_string(ands));
            const Netlist nl = andChain(ands);
            ASSERT_EQ(nl.numAndGates(), ands);
            expectExactAccounting(nl, gbits, ebits, 7 + ands, s);
        }
    }
}

TEST(Remote, GarblerClosingMidTableStreamFailsBothSides)
{
    expectMidStreamCloseFailsBothSides(true);
}

TEST(Remote, EvaluatorClosingMidTableStreamFailsBothSides)
{
    expectMidStreamCloseFailsBothSides(false);
}

TEST(Remote, DecodeBitsSharingTheLastTableFrameDecode)
{
    // A hand-rolled garbler frames its session its own way: the last
    // table segment and the decode bits travel in one frame. Any
    // framing is legal on the stream, so the evaluator reads the
    // tables out of that frame and the decode bits after them — with
    // its reader thread (20 ANDs at 7 per segment) and without it
    // (one segment of 64).
    // Over TCP with an I/O timeout where sockets exist, so an evaluator
    // that lost the decode bits fails instead of waiting for them.
    const Netlist nl = andChain(20);
    const std::vector<bool> gbits = u64ToBits(0x71, 8);
    const std::vector<bool> ebits = u64ToBits(0x2e, 8);
    auto listener = tryListen();
    TcpOptions tcp;
    tcp.ioTimeoutMs = 5000;
    for (uint32_t s : {7u, 64u}) {
        SCOPED_TRACE("segment=" + std::to_string(s));
        const GarbledInstance inst = captureGarbling(nl, 0x5EED + s);
        const InputLabels labels = inst.inputLabels();
        std::unique_ptr<Transport> gend, eend;
        if (listener) {
            eend = TcpTransport::connect("127.0.0.1", listener->port(), tcp);
            gend = listener->accept(tcp);
        } else {
            auto ends = LoopbackTransport::createPair();
            gend = std::move(ends.first);
            eend = std::move(ends.second);
        }
        std::vector<bool> echo;
        PeerThread garbler([&, t = std::move(gend)] {
            t->handshake(PeerRole::Garbler);
            NetChannel chan(*t, 1 << 20);
            WireWriter fp;
            fp.u32(nl.numGarblerInputs);
            fp.u32(nl.numEvaluatorInputs);
            fp.u32(nl.numGates());
            fp.u32(nl.numAndGates());
            fp.u32(uint32_t(nl.outputs.size()));
            fp.u32(nl.constOne);
            fp.u64(0);
            fp.u32(s);
            fp.u8(1);
            fp.u8(0);
            chan.sendBytes(fp.bytes().data(), fp.bytes().size());
            chan.flush();
            const uint32_t g = nl.numGarblerInputs;
            std::vector<Label> zero, one;
            for (uint32_t i = 0; i < nl.numEvaluatorInputs; ++i) {
                zero.push_back(labels.activeLabel(g + i, false));
                one.push_back(labels.activeLabel(g + i, true));
            }
            OtExtSender ot(chan, chan, otRandomKey());
            ot.setup();
            ot.send(zero, one);
            if (nl.constOne != kNoWire)
                chan.sendLabel(labels.activeLabel(nl.constOne, true));
            chan.flush();
            for (uint32_t i = 0; i < g; ++i)
                chan.sendLabel(labels.activeLabel(i, gbits[i]));
            chan.flush();
            for (size_t at = 0; at < inst.tables.size(); at += s) {
                const size_t n = std::min<size_t>(s, inst.tables.size() - at);
                for (size_t k = 0; k < n; ++k) {
                    chan.sendLabel(inst.tables[at + k].tg);
                    chan.sendLabel(inst.tables[at + k].te);
                }
                if (at + n < inst.tables.size())
                    chan.flush();
            }
            for (size_t i = 0; i < nl.outputs.size(); ++i)
                chan.sendBit(inst.decodeBit(i));
            chan.flush();
            for (size_t i = 0; i < nl.outputs.size(); ++i)
                echo.push_back(chan.recvBit());
        });
        eend->handshake(PeerRole::Evaluator);
        RemoteResult res;
        EXPECT_NO_THROW(res = runRemoteEvaluator(nl, ebits, *eend));
        eend.reset(); // hang up: a garbler still waiting fails, not hangs
        try {
            garbler.join();
        } catch (const NetError &e) {
            ADD_FAILURE() << "garbler: " << e.what();
        }
        EXPECT_EQ(res.outputs, nl.evaluate(gbits, ebits));
        EXPECT_EQ(echo, res.outputs);
        EXPECT_EQ(res.tableBytes, nl.numAndGates() * kTableBytes);
        EXPECT_EQ(res.tableSegments, (nl.numAndGates() + s - 1) / s);
        EXPECT_EQ(res.outputDecodeBytes, nl.outputs.size());
        EXPECT_EQ(res.segmentTables, s);
    }
}

TEST(RemoteBackend, UnseededGarblerSendsFreshLabels)
{
    // A remote-gc garbler given no seed must not garble from the public
    // default 0x4841414331 (any evaluator could expand its labels and
    // read the garbler's inputs), nor repeat itself across runs.
    const Workload wl = makeMillionaire(32);
    const uint32_t g = wl.netlist.numGarblerInputs;
    const InputLabels public_labels =
        expandInputLabels(0x4841414331ull, wl.netlist.numInputs());
    std::vector<std::vector<uint8_t>> direct;
    for (int run = 0; run < 2; ++run) {
        auto [gend, eend] = LoopbackTransport::createPair();
        auto recorder = std::make_shared<golden::RecordingTransport>(*gend);
        RunReport greport;
        PeerThread garbler([&] {
            RemoteGcBackend backend(recorder, Role::Garbler);
            Session gsession(wl);
            gsession.withRemote(Role::Garbler, "loopback");
            greport = gsession.run(backend);
        });
        RemoteGcBackend backend(std::move(eend), Role::Evaluator);
        Session(wl).run(backend);
        garbler.join();

        constexpr size_t kHello = 8; // the backend's handshake
        const auto frames = golden::splitFrames(std::vector<uint8_t>(
            recorder->sent.begin() + kHello, recorder->sent.end()));
        const size_t first = golden::postOtStart(
            frames, greport.comm.inputLabelBytes + greport.comm.tableBytes +
                        greport.comm.outputDecodeBytes);
        ASSERT_LT(first, frames.size());
        ASSERT_EQ(frames[first].size(), g * kLabelBytes);
        for (uint32_t i = 0; i < g; ++i) {
            const Label sent = Label::fromBytes(frames[first].data() +
                                                i * kLabelBytes);
            EXPECT_NE(sent, public_labels.activeLabel(i, false)) << i;
            EXPECT_NE(sent, public_labels.activeLabel(i, true)) << i;
        }
        direct.push_back(frames[first]);
    }
    for (uint32_t i = 0; i < g; ++i)
        EXPECT_FALSE(std::equal(direct[0].begin() + i * kLabelBytes,
                                direct[0].begin() + (i + 1) * kLabelBytes,
                                direct[1].begin() + i * kLabelBytes))
            << "label " << i << " repeated across runs";
}
