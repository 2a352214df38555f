/**
 * @file
 * Garbled-circuits protocol tests: Half-Gate correctness for all input
 * combinations, FreeXOR/NOT label algebra, whole-circuit garbling vs
 * plaintext on random circuits (property test), OT, channel accounting,
 * and the end-to-end protocol.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <stdexcept>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"
#include "gc/evaluator.h"
#include "gc/garbler.h"
#include "gc/ot.h"
#include "gc/protocol.h"
#include "gc/streaming.h"
#include "workloads/vip.h"

namespace haac {
namespace {

TEST(HalfGate, AndCorrectForAllInputCombos)
{
    Prg prg(42);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();

    for (uint64_t gate : {0ull, 1ull, 999ull}) {
        HalfGateGarbled hg = garbleAnd(a0, b0, r, gate);
        for (bool va : {false, true}) {
            for (bool vb : {false, true}) {
                const Label la = va ? a0 ^ r : a0;
                const Label lb = vb ? b0 ^ r : b0;
                const Label lc = evaluateAnd(la, lb, hg.table, gate);
                const Label want =
                    (va && vb) ? hg.outZero ^ r : hg.outZero;
                EXPECT_EQ(lc, want)
                    << "gate=" << gate << " a=" << va << " b=" << vb;
            }
        }
    }
}

TEST(HalfGate, FixedKeyVariantAlsoCorrect)
{
    Prg prg(43);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();
    FixedKeyHasher h;

    HalfGateGarbled hg = garbleAndFixedKey(h, a0, b0, r, 7);
    for (bool va : {false, true}) {
        for (bool vb : {false, true}) {
            const Label la = va ? a0 ^ r : a0;
            const Label lb = vb ? b0 ^ r : b0;
            const Label lc = evaluateAndFixedKey(h, la, lb, hg.table, 7);
            EXPECT_EQ(lc, (va && vb) ? hg.outZero ^ r : hg.outZero);
        }
    }
}

TEST(HalfGate, WrongTweakBreaksEvaluation)
{
    Prg prg(44);
    Label r = prg.nextLabel();
    r.setLsb(true);
    const Label a0 = prg.nextLabel();
    const Label b0 = prg.nextLabel();
    HalfGateGarbled hg = garbleAnd(a0, b0, r, 5);
    const Label lc = evaluateAnd(a0, b0, hg.table, 6);
    EXPECT_NE(lc, hg.outZero);
}

TEST(HalfGate, FusedPairHashMatchesTwoRekeyedHashers)
{
    // hashRekeyedPair is the half-gate kernels' only hash; hold it to
    // the single-tweak RekeyedHasher on random tweaks and labels,
    // including tweaks above 2^32.
    Prg rng(1303);
    for (int trial = 0; trial < 10000; ++trial) {
        const int n = 1 + trial % 2;
        // Mostly a gate's (2g, 2g+1) pair, sometimes arbitrary tweaks.
        const uint64_t j0 =
            trial % 4 == 0 ? rng.nextU64() : 2 * rng.nextRange(1u << 20);
        const uint64_t j1 = trial % 3 == 0 ? rng.nextU64() : j0 + 1;
        Label x0[2], x1[2], y0[2], y1[2];
        for (int i = 0; i < n; ++i) {
            x0[i] = rng.nextLabel();
            x1[i] = rng.nextLabel();
        }
        hashRekeyedPair(j0, j1, x0, y0, x1, y1, n);
        const RekeyedHasher h0(j0), h1(j1);
        for (int i = 0; i < n; ++i) {
            ASSERT_EQ(y0[i], h0(x0[i])) << "trial " << trial;
            ASSERT_EQ(y1[i], h1(x1[i])) << "trial " << trial;
        }
    }
    Label x[3], y[3];
    EXPECT_THROW(hashRekeyedPair(0, 1, x, y, x, y, 3), std::invalid_argument);
}

TEST(HalfGate, TableBytesMatchPaper)
{
    // §1: "each (AND) gate involves a unique, 32 Byte, constant".
    EXPECT_EQ(kTableBytes, 32u);
}

TEST(Garbler, XorGatesAreFree)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.xorGate(a, b));
    Netlist nl = cb.build();
    Garbler g(nl, 1);
    EXPECT_EQ(g.tables().size(), 0u);
    EXPECT_EQ(g.zeroLabel(nl.outputs[0]),
              g.zeroLabel(a) ^ g.zeroLabel(b));
}

TEST(Garbler, GlobalOffsetHasLsbSet)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    cb.addOutput(a);
    Netlist nl = cb.build();
    for (uint64_t seed : {1ull, 2ull, 3ull})
        EXPECT_TRUE(Garbler(nl, seed).globalOffset().lsb());
}

TEST(Garbler, DeterministicPerSeed)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    Garbler g1(nl, 9), g2(nl, 9), g3(nl, 10);
    EXPECT_EQ(g1.tables()[0], g2.tables()[0]);
    EXPECT_FALSE(g1.tables()[0] == g3.tables()[0]);
}

/** Build a random AND/XOR/NOT circuit and check GC == plaintext. */
class RandomCircuitGc : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomCircuitGc, GarbleEvaluateMatchesPlaintext)
{
    const uint64_t seed = GetParam();
    Prg prg(seed);
    CircuitBuilder cb;
    const uint32_t n_garbler = 3 + uint32_t(prg.nextRange(5));
    const uint32_t n_eval = 3 + uint32_t(prg.nextRange(5));
    Bits pool;
    for (Wire w : cb.garblerInputs(n_garbler))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(n_eval))
        pool.push_back(w);

    const uint32_t n_gates = 40 + uint32_t(prg.nextRange(160));
    for (uint32_t i = 0; i < n_gates; ++i) {
        const Wire a = pool[prg.nextRange(pool.size())];
        const Wire b = pool[prg.nextRange(pool.size())];
        switch (prg.nextRange(3)) {
          case 0:
            pool.push_back(cb.andGate(a, b));
            break;
          case 1:
            pool.push_back(cb.xorGate(a, b));
            break;
          default:
            pool.push_back(cb.notGate(a));
            break;
        }
    }
    for (uint32_t i = 0; i < 8; ++i)
        cb.addOutput(pool[pool.size() - 1 - i]);
    Netlist nl = cb.build();

    std::vector<bool> ga(n_garbler), eb(n_eval);
    for (uint32_t i = 0; i < n_garbler; ++i)
        ga[i] = prg.nextBit();
    for (uint32_t i = 0; i < n_eval; ++i)
        eb[i] = prg.nextBit();

    ProtocolResult res = runProtocol(nl, ga, eb, seed * 31 + 7);
    EXPECT_EQ(res.outputs, nl.evaluate(ga, eb)) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitGc,
                         ::testing::Range<uint64_t>(1, 21));

TEST(Protocol, AdderEndToEnd)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(addBits(cb, a, b));
    Netlist nl = cb.build();

    ProtocolResult res = runProtocol(nl, u64ToBits(12345, 16),
                                     u64ToBits(54321, 16));
    EXPECT_EQ(bitsToU64(res.outputs), (12345 + 54321) & 0xffff);
}

TEST(Protocol, TrafficAccounting)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    cb.addOutputs(mulBits(cb, a, b, 8));
    Netlist nl = cb.build();

    // Simulated OT: two masked labels per evaluator bit + const-one
    // label, and no uplink at all.
    ProtocolResult res = runProtocol(nl, u64ToBits(7, 8),
                                     u64ToBits(9, 8), 0x4841414331ull,
                                     OtMode::Simulated);
    EXPECT_EQ(bitsToU64(res.outputs), 63u);
    EXPECT_EQ(res.tableBytes, nl.numAndGates() * kTableBytes);
    EXPECT_EQ(res.inputLabelBytes, 8 * kLabelBytes);
    EXPECT_EQ(res.otBytes, 8 * 2 * kLabelBytes + kLabelBytes);
    EXPECT_EQ(res.otUplinkBytes, 0u);
    EXPECT_EQ(res.totalBytes,
              res.tableBytes + res.inputLabelBytes + res.otBytes +
                  res.outputDecodeBytes);

    // Real OT (the default): the downlink carries the 128 base-OT
    // points plus one masked label pair per evaluator bit plus the
    // const-one label; the uplink carries the base-OT public key
    // plus 128 masked columns of one 16-byte block each.
    ProtocolResult real = runProtocol(nl, u64ToBits(7, 8),
                                      u64ToBits(9, 8));
    EXPECT_EQ(bitsToU64(real.outputs), 63u);
    EXPECT_EQ(real.tableBytes, res.tableBytes);
    EXPECT_EQ(real.inputLabelBytes, res.inputLabelBytes);
    EXPECT_EQ(real.otBytes,
              128 * 32 + 8 * 2 * kLabelBytes + kLabelBytes);
    // Base public key + two masked column blocks (the real block and
    // the KOS15 pad) + the 32-byte consistency proof.
    EXPECT_EQ(real.otUplinkBytes, 32u + 2 * 128 * kLabelBytes + 32u);
    EXPECT_EQ(real.totalBytes,
              real.tableBytes + real.inputLabelBytes + real.otBytes +
                  real.outputDecodeBytes);
}

TEST(Protocol, RejectsWrongInputCounts)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    EXPECT_THROW(runProtocol(nl, {}, {true}), std::invalid_argument);
    EXPECT_THROW(runProtocol(nl, {true, false}, {true}),
                 std::invalid_argument);
}

TEST(Ot, TransfersChosenLabelOnly)
{
    Channel chan;
    OtSender sender(chan, 77);
    OtReceiver receiver(chan, 77);
    Prg prg(5);
    for (bool choice : {false, true, true, false}) {
        const Label m0 = prg.nextLabel();
        const Label m1 = prg.nextLabel();
        sender.send(m0, m1, choice);
        EXPECT_EQ(receiver.receive(choice), choice ? m1 : m0);
    }
}

TEST(Channel, FifoAndCounters)
{
    Channel chan;
    chan.sendLabel(Label(1, 2));
    chan.sendBit(true);
    chan.sendTable(GarbledTable{Label(3, 4), Label(5, 6)});
    EXPECT_EQ(chan.bytesSent(), 16 + 1 + 32u);
    EXPECT_EQ(chan.recvLabel(), Label(1, 2));
    EXPECT_TRUE(chan.recvBit());
    GarbledTable t = chan.recvTable();
    EXPECT_EQ(t.tg, Label(3, 4));
    EXPECT_EQ(t.te, Label(5, 6));
    EXPECT_EQ(chan.pending(), 0u);
}

TEST(Channel, UnderflowThrows)
{
    Channel chan;
    chan.sendBit(false);
    chan.recvBit();
    EXPECT_THROW(chan.recvBit(), std::runtime_error);
}

TEST(Evaluator, TooFewTablesThrows)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    Evaluator ev(nl);
    std::vector<Label> inputs(nl.numInputs());
    EXPECT_THROW(ev.evaluate(inputs, {}), std::invalid_argument);
}

TEST(Streaming, MatchesBatchGarblerBitForBit)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    Bits m = mulBits(cb, a, b, 8);
    cb.addOutputs(addBits(cb, m, a));
    Netlist nl = cb.build();

    const uint64_t seed = 77;
    Garbler batch(nl, seed);

    std::vector<GarbledTable> streamed;
    StreamedGarbling sg = garbleStreaming(
        nl, seed,
        [&streamed](const GarbledTable &t) { streamed.push_back(t); });

    EXPECT_EQ(sg.globalOffset, batch.globalOffset());
    ASSERT_EQ(streamed.size(), batch.tables().size());
    for (size_t i = 0; i < streamed.size(); ++i)
        EXPECT_EQ(streamed[i], batch.tables()[i]) << "table " << i;
    for (uint32_t w = 0; w < nl.numInputs(); ++w)
        EXPECT_EQ(sg.inputZeroLabels[w], batch.zeroLabel(w));
    for (size_t i = 0; i < nl.outputs.size(); ++i)
        EXPECT_EQ(sg.outputZeroLabels[i],
                  batch.zeroLabel(nl.outputs[i]));
}

TEST(Streaming, HammTablesMatchGoldenDigest)
{
    // FNV-1a over every table the streaming garbler emits for the
    // default-scale Hamm workload: pins the re-keyed half-gate bytes
    // end to end, on whichever AES path the host takes.
    const Workload wl = vipWorkload("Hamm", false);
    uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            digest ^= (word >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    };
    const StreamedGarbling sg = garbleStreaming(
        wl.netlist, 2023, [&mix](const GarbledTable &t) {
            mix(t.tg.lo);
            mix(t.tg.hi);
            mix(t.te.lo);
            mix(t.te.hi);
        });
    EXPECT_EQ(sg.tablesEmitted, wl.netlist.numAndGates());
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    EXPECT_STREQ(hex, "3361f11c2523e3e7");
}

TEST(Streaming, PipelinedGarbleEvaluateIsCorrect)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(mulBits(cb, a, b, 16));
    Netlist nl = cb.build();

    // A bounded "network" FIFO between the two parties.
    std::deque<GarbledTable> wire_fifo;
    StreamedGarbling sg = garbleStreaming(
        nl, 5, [&wire_fifo](const GarbledTable &t) {
            wire_fifo.push_back(t);
        });

    const uint64_t x = 321, y = 207;
    std::vector<Label> inputs(nl.numInputs());
    for (uint32_t w = 0; w < 16; ++w)
        inputs[w] = ((x >> w) & 1) ? sg.inputZeroLabels[w] ^
                                         sg.globalOffset
                                   : sg.inputZeroLabels[w];
    for (uint32_t w = 0; w < 16; ++w)
        inputs[16 + w] = ((y >> w) & 1)
                             ? sg.inputZeroLabels[16 + w] ^
                                   sg.globalOffset
                             : sg.inputZeroLabels[16 + w];
    inputs[nl.constOne] =
        sg.inputZeroLabels[nl.constOne] ^ sg.globalOffset;

    std::vector<Label> outs =
        evaluateStreaming(nl, inputs, [&wire_fifo]() {
            GarbledTable t = wire_fifo.front();
            wire_fifo.pop_front();
            return t;
        });
    EXPECT_TRUE(wire_fifo.empty());

    uint64_t result = 0;
    for (size_t i = 0; i < outs.size(); ++i) {
        const bool bit =
            outs[i].lsb() != sg.outputZeroLabels[i].lsb();
        result |= uint64_t(bit) << i;
    }
    EXPECT_EQ(result, (x * y) & 0xffff);
}

TEST(SoftwareGc, TimingProducesThroughput)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(mulBits(cb, a, b, 16));
    Netlist nl = cb.build();
    SoftwareGcTiming t = timeSoftwareGc(nl);
    EXPECT_GT(t.gates, 0u);
    EXPECT_GT(t.garbleSeconds, 0.0);
    EXPECT_GT(t.evaluateSeconds, 0.0);
    EXPECT_GT(t.garbledGatesPerSecond(), 0.0);
}

} // namespace
} // namespace haac
