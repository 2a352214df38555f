/**
 * @file
 * Oblivious transfer (gc/base_ot.h + gc/ot_ext.h): base-OT key
 * agreement, IKNP batch correctness at scale, receiver secrecy,
 * tampered/truncated-stream error paths, and the exact wire shape.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "crypto/prg.h"
#include "gc/base_ot.h"
#include "gc/channel.h"
#include "gc/ot_ext.h"
#include "net/loopback.h"
#include "net/net_channel.h"

using namespace haac;

// ---------------------------------------------------------------------------
// Base OT (Chou-Orlandi over Curve25519)
// ---------------------------------------------------------------------------

TEST(BaseOt, SenderAndReceiverAgreeOnChosenKeys)
{
    DuplexChannel chan;
    Prg srng(1001), rrng(2002);
    BaseOtSender sender(chan.toEvaluator, chan.toGarbler, srng);
    BaseOtReceiver receiver(chan.toGarbler, chan.toEvaluator, rrng);

    std::vector<bool> choices(16);
    for (size_t i = 0; i < choices.size(); ++i)
        choices[i] = (i % 3) == 1;

    sender.start();
    receiver.run(choices);
    sender.finish(choices.size());

    for (size_t i = 0; i < choices.size(); ++i) {
        const Label chosen =
            choices[i] ? sender.keys1()[i] : sender.keys0()[i];
        const Label other =
            choices[i] ? sender.keys0()[i] : sender.keys1()[i];
        EXPECT_EQ(receiver.keys()[i], chosen) << "i=" << i;
        EXPECT_NE(receiver.keys()[i], other) << "i=" << i;
        EXPECT_NE(sender.keys0()[i], sender.keys1()[i]) << "i=" << i;
    }
}

TEST(BaseOt, TrafficIsOnePointEachWay)
{
    DuplexChannel chan;
    Prg srng(1), rrng(2);
    BaseOtSender sender(chan.toEvaluator, chan.toGarbler, srng);
    BaseOtReceiver receiver(chan.toGarbler, chan.toEvaluator, rrng);
    sender.start();
    EXPECT_EQ(chan.toEvaluator.bytesSent(), 32u);
    receiver.run({true, false, true});
    EXPECT_EQ(chan.toGarbler.bytesSent(), 3 * 32u);
    sender.finish(3);
    EXPECT_EQ(chan.toEvaluator.pending(), 0u);
    EXPECT_EQ(chan.toGarbler.pending(), 0u);
}

TEST(BaseOt, RejectsTamperedPublicKey)
{
    DuplexChannel chan;
    Prg rng(3);
    // 32 bytes that decompress to nothing (y = 2 is off-curve).
    uint8_t junk[32] = {2};
    chan.toEvaluator.sendBytes(junk, sizeof(junk));
    BaseOtReceiver receiver(chan.toGarbler, chan.toEvaluator, rng);
    EXPECT_THROW(receiver.run({true}), OtError);
}

TEST(BaseOt, RejectsTamperedBlindedPoint)
{
    DuplexChannel chan;
    Prg srng(4);
    BaseOtSender sender(chan.toEvaluator, chan.toGarbler, srng);
    sender.start();
    uint8_t junk[32] = {2};
    chan.toGarbler.sendBytes(junk, sizeof(junk));
    EXPECT_THROW(sender.finish(1), OtError);
}

TEST(BaseOt, RejectsTamperedBlindedPointAtAnyIndex)
{
    // An honest receiver's 128 blinded points with one of them replaced
    // by an off-curve encoding: the sender's batch decompression must
    // refuse it with the same error, wherever it sits.
    for (size_t bad : {0, 9, 127}) {
        DuplexChannel chan, tap;
        Prg srng(4), rrng(5);
        BaseOtSender sender(chan.toEvaluator, chan.toGarbler, srng);
        BaseOtReceiver receiver(tap.toGarbler, chan.toEvaluator, rrng);
        sender.start();
        receiver.run(std::vector<bool>(128, true));
        std::vector<uint8_t> wire(128 * 32);
        tap.toGarbler.recvBytes(wire.data(), wire.size());
        std::fill_n(&wire[bad * 32], 32, uint8_t(0));
        wire[bad * 32] = 2; // y = 2 is off-curve
        chan.toGarbler.sendBytes(wire.data(), wire.size());
        try {
            sender.finish(128);
            ADD_FAILURE() << "no error for a bad point at " << bad;
        } catch (const OtError &e) {
            EXPECT_STREQ(e.what(),
                         "base OT: invalid blinded point (not a curve point)")
                << "bad=" << bad;
        }
    }
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

void
fnvMix(uint64_t &digest, const uint8_t *bytes, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        digest ^= bytes[i];
        digest *= 0x100000001b3ull;
    }
}

void
fnvMix(uint64_t &digest, const Label &l)
{
    uint8_t bytes[kLabelBytes];
    l.toBytes(bytes);
    fnvMix(digest, bytes, sizeof bytes);
}

/** An in-process FIFO that digests every byte written to it. */
class TapChannel : public Channel
{
  public:
    uint64_t digest = kFnvOffset;

  protected:
    void
    writeBytes(const uint8_t *data, size_t n) override
    {
        fnvMix(digest, data, n);
        Channel::writeBytes(data, n);
    }
};

} // namespace

// Seeded base-OT keys for both roles and the points on the wire,
// recorded on the double-and-add implementation: comb tables,
// windows and batched inversions must not move a byte.
TEST(BaseOt, SeededKeysGolden)
{
    TapChannel to_receiver, to_sender;
    Prg srng(0x626f7431), rrng(0x626f7432);
    BaseOtSender sender(to_receiver, to_sender, srng);
    BaseOtReceiver receiver(to_sender, to_receiver, rrng);
    Prg choice_rng(0x626f7433);
    std::vector<bool> choices(128);
    for (size_t i = 0; i < choices.size(); ++i)
        choices[i] = choice_rng.nextBit();
    sender.start();
    receiver.run(choices);
    sender.finish(choices.size());

    uint64_t sender_keys = kFnvOffset, receiver_keys = kFnvOffset;
    for (size_t i = 0; i < choices.size(); ++i) {
        fnvMix(sender_keys, sender.keys0()[i]);
        fnvMix(sender_keys, sender.keys1()[i]);
        fnvMix(receiver_keys, receiver.keys()[i]);
    }
    EXPECT_EQ(sender_keys, 0x2f9f974584d2d96eull) << std::hex << sender_keys;
    EXPECT_EQ(receiver_keys, 0xb43563eb401a0f2full) << std::hex << receiver_keys;
    EXPECT_EQ(to_receiver.digest, 0x38977b08b5af38ccull) << std::hex << to_receiver.digest;
    EXPECT_EQ(to_sender.digest, 0xe9d0c80e5df82a02ull) << std::hex << to_sender.digest;
}

// ---------------------------------------------------------------------------
// IKNP OT extension
// ---------------------------------------------------------------------------

namespace {

/** Both endpoints over in-process FIFOs, driven in protocol order. */
struct ExtPair
{
    DuplexChannel chan;
    OtExtSender sender;
    OtExtReceiver receiver;

    explicit ExtPair(uint64_t seed_tag = 0)
        : sender(chan.toEvaluator, chan.toGarbler, 900 + seed_tag),
          receiver(chan.toGarbler, chan.toEvaluator, 800 + seed_tag)
    {
        receiver.start();
        sender.setup();
        receiver.setup();
    }

    /** One full batch: returns the receiver's labels. */
    std::vector<Label>
    transfer(const std::vector<Label> &m0, const std::vector<Label> &m1,
             const std::vector<bool> &choices)
    {
        receiver.sendChoices(choices);
        sender.send(m0, m1);
        return receiver.receiveLabels();
    }
};

} // namespace

TEST(OtExt, LargeBatchTransfersTheChosenLabel)
{
    // >= 10k choice bits through one batch (the acceptance scale).
    constexpr size_t kCount = 10240;
    ExtPair ot;
    Prg prg(7);
    std::vector<Label> m0(kCount), m1(kCount);
    std::vector<bool> choices(kCount);
    for (size_t i = 0; i < kCount; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = (i * 7 + i / 13) % 3 == 0;
    }
    const std::vector<Label> got = ot.transfer(m0, m1, choices);
    ASSERT_EQ(got.size(), kCount);
    for (size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(got[i], choices[i] ? m1[i] : m0[i]) << "i=" << i;
        ASSERT_NE(got[i], choices[i] ? m0[i] : m1[i]) << "i=" << i;
    }
}

TEST(OtExt, MultipleBatchesShareOneSetup)
{
    ExtPair ot;
    Prg prg(9);
    for (int batch = 0; batch < 3; ++batch) {
        const size_t count = 100 + 50 * size_t(batch);
        std::vector<Label> m0(count), m1(count);
        std::vector<bool> choices(count);
        for (size_t i = 0; i < count; ++i) {
            m0[i] = prg.nextLabel();
            m1[i] = prg.nextLabel();
            choices[i] = ((i + size_t(batch)) % 2) == 0;
        }
        const std::vector<Label> got = ot.transfer(m0, m1, choices);
        for (size_t i = 0; i < count; ++i)
            ASSERT_EQ(got[i], choices[i] ? m1[i] : m0[i])
                << "batch=" << batch << " i=" << i;
    }
}

TEST(OtExt, WireShapeIsExact)
{
    // Base phase: one 32-byte key up, 128 32-byte points down.
    // Batch of m: 2048 bytes of masked columns per 128-block up,
    // two 16-byte masked labels per OT down.
    ExtPair ot;
    const size_t up_setup = ot.chan.toGarbler.bytesSent();
    const size_t down_setup = ot.chan.toEvaluator.bytesSent();
    EXPECT_EQ(up_setup, 32u);
    EXPECT_EQ(down_setup, 128 * 32u);

    const size_t m = 200; // two 128-blocks
    Prg prg(11);
    std::vector<Label> m0(m), m1(m);
    for (size_t i = 0; i < m; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
    }
    ot.transfer(m0, m1, std::vector<bool>(m, true));
    // Two real column blocks + the KOS15 pad block, then the 32-byte
    // consistency proof.
    EXPECT_EQ(ot.chan.toGarbler.bytesSent() - up_setup,
              3 * 2048u + 32u);
    EXPECT_EQ(ot.chan.toEvaluator.bytesSent() - down_setup,
              m * 2 * kLabelBytes);
    EXPECT_EQ(ot.chan.toGarbler.pending(), 0u);
    EXPECT_EQ(ot.chan.toEvaluator.pending(), 0u);
}

// Seeded IKNP transcripts across block boundaries, recorded on the
// per-OT hashing, bit-serial gf128 implementation: the uplink (base key, masked columns and the
// 32-byte KOS15 proof), the downlink (base points and masked label
// pairs) and the received labels of a batch of m, then a second batch
// of 3 on the same setup. Each digest covers one batch size.
TEST(OtExt, SeededTranscriptGolden)
{
    const struct
    {
        size_t m;
        uint64_t uplink, downlink, labels;
    } kGolden[] = {
        {1, 0x1e0a8861e1d965a4ull, 0x9a720f944cdeede5ull, 0x6e2aeeb0a39ae946ull},
        {64, 0xa12caae72ac1d552ull, 0xb06f15499f4b01faull, 0x418d736834d8c799ull},
        {127, 0x3406a073c392644cull, 0xf7e8dd45a9c86a5dull, 0xc9207ef3a12f76f8ull},
        {128, 0xe06f06f4cdcf39ccull, 0x963b971b49f645e2ull, 0xed82bd05ec38e828ull},
        {129, 0xc9a602cca4abaa03ull, 0x7f564bfd640fe461ull, 0x65ebf66c25541696ull},
        {2049, 0x578d2ba3ff4ccee8ull, 0x781acb3755298216ull, 0x5cc829f8081853e7ull},
    };
    for (const auto &g : kGolden) {
        TapChannel to_receiver, to_sender;
        OtExtSender sender(to_receiver, to_sender, 0x5e00 + g.m);
        OtExtReceiver receiver(to_sender, to_receiver, 0x7e00 + g.m);
        receiver.start();
        sender.setup();
        receiver.setup();

        uint64_t labels = kFnvOffset;
        Prg prg(0x6d00 + g.m);
        for (size_t count : {g.m, size_t(3)}) {
            std::vector<Label> m0(count), m1(count);
            std::vector<bool> choices(count);
            for (size_t j = 0; j < count; ++j) {
                m0[j] = prg.nextLabel();
                m1[j] = prg.nextLabel();
                choices[j] = prg.nextBit();
            }
            receiver.sendChoices(choices);
            sender.send(m0, m1);
            const std::vector<Label> got = receiver.receiveLabels();
            ASSERT_EQ(got.size(), count);
            for (size_t j = 0; j < count; ++j) {
                ASSERT_EQ(got[j], choices[j] ? m1[j] : m0[j]);
                fnvMix(labels, got[j]);
            }
        }
        EXPECT_EQ(to_sender.digest, g.uplink)
            << "m=" << g.m << " uplink " << std::hex << to_sender.digest;
        EXPECT_EQ(to_receiver.digest, g.downlink)
            << "m=" << g.m << " downlink " << std::hex
            << to_receiver.digest;
        EXPECT_EQ(labels, g.labels)
            << "m=" << g.m << " labels " << std::hex << labels;
    }
}

TEST(OtExt, NonChosenCiphertextStaysMasked)
{
    // Receiver secrecy, observed at the wire: both downlink
    // ciphertexts are masked, and the two masks differ per OT — so
    // knowing the chosen plaintext (and hence the chosen mask) does
    // not unmask the other ciphertext.
    const size_t m = 64;
    ExtPair ot;
    Prg prg(13);
    std::vector<Label> m0(m), m1(m);
    std::vector<bool> choices(m);
    for (size_t i = 0; i < m; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = i % 2 == 0;
    }
    ot.receiver.sendChoices(choices);
    ot.sender.send(m0, m1);

    // Tap the downlink, then re-inject so the receiver still runs.
    std::vector<Label> y0(m), y1(m);
    for (size_t i = 0; i < m; ++i) {
        y0[i] = ot.chan.toEvaluator.recvLabel();
        y1[i] = ot.chan.toEvaluator.recvLabel();
    }
    for (size_t i = 0; i < m; ++i) {
        ot.chan.toEvaluator.sendLabel(y0[i]);
        ot.chan.toEvaluator.sendLabel(y1[i]);
    }
    const std::vector<Label> got = ot.receiver.receiveLabels();

    for (size_t i = 0; i < m; ++i) {
        ASSERT_EQ(got[i], choices[i] ? m1[i] : m0[i]);
        ASSERT_NE(y0[i], m0[i]) << "unmasked ciphertext, i=" << i;
        ASSERT_NE(y1[i], m1[i]) << "unmasked ciphertext, i=" << i;
        // Chosen mask != other mask: recovering the chosen label
        // does not reveal the other one.
        ASSERT_NE(y0[i] ^ m0[i], y1[i] ^ m1[i]) << "i=" << i;
        const Label chosen_mask =
            choices[i] ? y1[i] ^ m1[i] : y0[i] ^ m0[i];
        const Label other_ct = choices[i] ? y0[i] : y1[i];
        const Label other_pt = choices[i] ? m0[i] : m1[i];
        ASSERT_NE(other_ct ^ chosen_mask, other_pt) << "i=" << i;
    }
}

TEST(OtExt, UseBeforeSetupThrows)
{
    DuplexChannel chan;
    OtExtSender sender(chan.toEvaluator, chan.toGarbler, 1);
    OtExtReceiver receiver(chan.toGarbler, chan.toEvaluator, 2);
    EXPECT_THROW(sender.send({Label(1, 2)}, {Label(3, 4)}),
                 std::logic_error);
    EXPECT_THROW(receiver.sendChoices({true}), std::logic_error);
    EXPECT_THROW(receiver.receiveLabels(), std::logic_error);
}

TEST(OtExt, MismatchedMessageVectorsThrow)
{
    ExtPair ot;
    EXPECT_THROW(ot.sender.send({Label(1, 2)}, {}),
                 std::invalid_argument);
}

TEST(OtExt, TamperedBaseKeyFailsTheSetup)
{
    DuplexChannel chan;
    OtExtSender sender(chan.toEvaluator, chan.toGarbler, 5);
    uint8_t junk[32] = {2}; // off-curve encoding
    chan.toGarbler.sendBytes(junk, sizeof(junk));
    EXPECT_THROW(sender.setup(), OtError);
}

namespace {

/** Channel that flips one bit of the stream at a fixed byte offset. */
class BitFlipChannel : public Channel
{
  public:
    explicit BitFlipChannel(size_t flip_at) : flipAt_(flip_at) {}

  protected:
    void
    writeBytes(const uint8_t *data, size_t n) override
    {
        std::vector<uint8_t> copy(data, data + n);
        if (flipAt_ >= written_ && flipAt_ < written_ + n)
            copy[flipAt_ - written_] ^= 1;
        written_ += n;
        Channel::writeBytes(copy.data(), n);
    }

  private:
    size_t flipAt_;
    size_t written_ = 0;
};

} // namespace

TEST(OtExt, Kos15RejectsInconsistentReceiverColumns)
{
    // Flipping one bit of one uplinked column block is exactly the
    // malicious-receiver move the KOS15 check exists to catch: it is
    // equivalent to using a different choice vector r in that column,
    // which plain IKNP would turn into a selective-failure probe of
    // the sender's secret s. Offset 32 skips the base-OT public key,
    // so the flip lands inside the first batch's masked columns.
    BitFlipChannel to_garbler(32 + 100);
    Channel to_evaluator;
    OtExtSender sender(to_evaluator, to_garbler, 21);
    OtExtReceiver receiver(to_garbler, to_evaluator, 22);
    receiver.start();
    sender.setup();
    receiver.setup();

    Prg prg(23);
    const size_t m = 8;
    std::vector<Label> m0(m), m1(m);
    for (size_t i = 0; i < m; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
    }
    receiver.sendChoices(std::vector<bool>(m, false));
    EXPECT_THROW(sender.send(m0, m1), OtError);
}

TEST(OtExt, Kos15RejectsTamperedProof)
{
    // Corrupting the proof itself must fail too. Per batch the uplink
    // is 2048 * (blocks + 1) column bytes then the 32-byte proof, so
    // for m = 8 (one real block + the pad) the proof starts at
    // 32 + 4096.
    BitFlipChannel to_garbler(32 + 4096 + 7);
    Channel to_evaluator;
    OtExtSender sender(to_evaluator, to_garbler, 31);
    OtExtReceiver receiver(to_garbler, to_evaluator, 32);
    receiver.start();
    sender.setup();
    receiver.setup();

    Prg prg(33);
    const size_t m = 8;
    std::vector<Label> m0(m), m1(m);
    for (size_t i = 0; i < m; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
    }
    receiver.sendChoices(std::vector<bool>(m, true));
    EXPECT_THROW(sender.send(m0, m1), OtError);
}

TEST(OtExt, TruncatedStreamFailsLoudly)
{
    // The peer vanishes mid-protocol: the channel read must surface a
    // NetError, not hang or fabricate labels.
    auto [gend, eend] = LoopbackTransport::createPair();
    NetChannel chan(*eend, 64);
    OtExtReceiver receiver(chan, chan, 3);
    receiver.start();
    gend.reset(); // garbler gone before sending its base points
    EXPECT_THROW(receiver.setup(), NetError);
}

TEST(OtExt, RunsOverNetChannelAcrossThreads)
{
    const size_t m = 300;
    Prg prg(15);
    std::vector<Label> m0(m), m1(m);
    std::vector<bool> choices(m);
    for (size_t i = 0; i < m; ++i) {
        m0[i] = prg.nextLabel();
        m1[i] = prg.nextLabel();
        choices[i] = (i % 5) < 2;
    }

    auto [send_end, recv_end] = LoopbackTransport::createPair();
    std::thread sender_thread([&, t = std::move(send_end)] {
        NetChannel chan(*t, 1024);
        OtExtSender sender(chan, chan, otRandomKey());
        sender.setup();
        sender.send(m0, m1);
    });

    NetChannel chan(*recv_end, 1024);
    OtExtReceiver receiver(chan, chan, otRandomKey());
    receiver.start();
    receiver.setup();
    receiver.sendChoices(choices);
    const std::vector<Label> got = receiver.receiveLabels();
    sender_thread.join();

    for (size_t i = 0; i < m; ++i)
        ASSERT_EQ(got[i], choices[i] ? m1[i] : m0[i]) << "i=" << i;
}
