/**
 * @file
 * Garbled-circuits protocol tests: Half-Gate correctness for all input
 * combinations, FreeXOR/NOT label algebra, whole-circuit garbling vs
 * plaintext on random circuits (property test), channel accounting, and
 * the end-to-end protocol.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"
#include "gc/evaluator.h"
#include "gc/garbler.h"
#include "gc/instance.h"
#include "gc/protocol.h"
#include "gc/streaming.h"
#include "workloads/vip.h"

#include "cpu_tiers.h"

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
    const GarbledInstance g = captureGarbling(nl, 1);
    const InputLabels in = g.inputLabels();
    EXPECT_EQ(g.tables.size(), 0u);
    EXPECT_EQ(g.outputZero[0], in.zero[a] ^ in.zero[b]);
}

TEST(Garbler, GlobalOffsetHasLsbSet)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    cb.addOutput(a);
    Netlist nl = cb.build();
    for (uint64_t seed : {1ull, 2ull, 3ull})
        EXPECT_TRUE(StreamingGarbler(nl, seed).inputs().offset.lsb());
}

TEST(Garbler, DeterministicPerSeed)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.addOutput(cb.andGate(a, b));
    Netlist nl = cb.build();
    const GarbledInstance g1 = captureGarbling(nl, 9);
    const GarbledInstance g2 = captureGarbling(nl, 9);
    const GarbledInstance g3 = captureGarbling(nl, 10);
    EXPECT_EQ(g1.tables[0], g2.tables[0]);
    EXPECT_FALSE(g1.tables[0] == g3.tables[0]);
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

    RemoteResult res = runProtocol(nl, ga, eb, seed * 31 + 7);
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

    RemoteResult res = runProtocol(nl, u64ToBits(12345, 16),
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

    // Tables and garbler labels follow from the netlist alone. The
    // OT downlink carries the 128 base-OT points plus one masked
    // label pair per evaluator bit plus the const-one label; the
    // uplink carries the base-OT public key plus 128 masked columns
    // of one 16-byte block each.
    RemoteResult res = runProtocol(nl, u64ToBits(7, 8),
                                     u64ToBits(9, 8));
    EXPECT_EQ(bitsToU64(res.outputs), 63u);
    EXPECT_EQ(res.tableBytes, nl.numAndGates() * kTableBytes);
    EXPECT_EQ(res.inputLabelBytes, nl.numGarblerInputs * kLabelBytes);
    EXPECT_EQ(res.otBytes,
              128 * 32 + 8 * 2 * kLabelBytes + kLabelBytes);
    // Base public key + two masked column blocks (the real block and
    // the KOS15 pad) + the 32-byte consistency proof.
    EXPECT_EQ(res.otUplinkBytes, 32u + 2 * 128 * kLabelBytes + 32u);
    EXPECT_EQ(res.outputDecodeBytes, nl.outputs.size());
    EXPECT_EQ(res.totalBytes,
              res.tableBytes + res.inputLabelBytes + res.otBytes +
                  res.outputDecodeBytes);
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

TEST(Channel, FifoAndCounters)
{
    Channel chan;
    chan.sendLabel(Label(1, 2));
    chan.sendBit(true);
    chan.sendLabel(Label(3, 4));
    chan.sendLabel(Label(5, 6));
    EXPECT_EQ(chan.bytesSent(), 16 + 1 + 32u);
    EXPECT_EQ(chan.recvLabel(), Label(1, 2));
    EXPECT_TRUE(chan.recvBit());
    EXPECT_EQ(chan.recvLabel(), Label(3, 4));
    EXPECT_EQ(chan.recvLabel(), Label(5, 6));
    EXPECT_EQ(chan.pending(), 0u);
}

TEST(Channel, UnderflowThrows)
{
    Channel chan;
    chan.sendBit(false);
    chan.recvBit();
    EXPECT_THROW(chan.recvBit(), std::runtime_error);
}

/** FNV-1a over a table stream, bytes of tg then te, low byte first. */
struct TableDigest
{
    uint64_t value = 0xcbf29ce484222325ull;

    void
    add(const GarbledTable &t)
    {
        for (uint64_t word : {t.tg.lo, t.tg.hi, t.te.lo, t.te.hi})
            for (int i = 0; i < 8; ++i) {
                value ^= (word >> (8 * i)) & 0xff;
                value *= 0x100000001b3ull;
            }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(value));
        return buf;
    }
};

TEST(Streaming, HammTablesMatchGoldenDigest)
{
    golden::forEachCpuTier([&] {
        // Every table the streaming garbler emits for the default-scale
        // Hamm workload: pins the re-keyed half-gate bytes end to end, on
        // every kernel tier.
        const Workload wl = vipWorkload("Hamm", false);
        TableDigest digest;
        StreamingGarbler sg(wl.netlist, 2023);
        sg.run([&digest](const GarbledTable &t) { digest.add(t); });
        EXPECT_EQ(sg.tablesEmitted(), wl.netlist.numAndGates());
        EXPECT_EQ(digest.hex(), "3361f11c2523e3e7");
    });
}

/**
 * The netlist walks against the kernels they inline: a reference walk
 * over garbleAnd(), whose bytes the HalfGateHash goldens pin. Run on
 * every kernel tier, this holds the tweak-key stream's walk
 * (gc/key_stream.h), the AES-NI walk and the portable one to the same
 * tables and labels.
 */
std::vector<GarbledTable>
referenceGarble(const Netlist &nl, const InputLabels &in,
                std::vector<Label> &zero)
{
    zero.assign(nl.numWires(), Label());
    std::copy(in.zero.begin(), in.zero.end(), zero.begin());
    std::vector<GarbledTable> tables;
    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = nl.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            zero[out] = zero[gate.a] ^ zero[gate.b];
            continue;
        }
        const HalfGateGarbled hg =
            garbleAnd(zero[gate.a], zero[gate.b], in.offset,
                      tables.size());
        tables.push_back(hg.table);
        zero[out] = hg.outZero;
    }
    return tables;
}

TEST(KeyStream, WalksMatchReferenceForAndCountsAroundBlockEdges)
{
    // The key stream keeps a ring of two eight-AND key blocks: 16 ANDs
    // use each block once, and ANDs 17 and 25 reuse the first and the
    // second.
    for (uint32_t ands : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 25u}) {
        // A chain of ANDs with an XOR after each, reading all four
        // inputs in turn, so labels flow through every gate.
        Netlist nl;
        nl.numGarblerInputs = 2;
        nl.numEvaluatorInputs = 2;
        WireId acc = 0;
        for (uint32_t k = 0; k < ands; ++k) {
            nl.gates.push_back({GateOp::And, acc, (k + 1) % 4});
            acc = nl.outputWireOf(nl.numGates() - 1);
            nl.gates.push_back({GateOp::Xor, acc, k % 4});
            acc = nl.outputWireOf(nl.numGates() - 1);
        }
        nl.outputs = {acc};
        ASSERT_EQ(nl.check(), "");

        golden::forEachCpuTier([&] {
            StreamingGarbler sg(nl, 31 + ands);
            std::vector<GarbledTable> tables;
            sg.run([&tables](const GarbledTable &t) { tables.push_back(t); });
            std::vector<Label> zero;
            EXPECT_EQ(tables, referenceGarble(nl, sg.inputs(), zero))
                << ands << " ANDs";
            EXPECT_EQ(sg.tablesEmitted(), ands);
            EXPECT_EQ(sg.outputZeroLabels(), std::vector<Label>{zero[acc]});

            for (uint32_t bits = 0; bits < 16; ++bits) {
                std::vector<Label> in(4);
                for (WireId w = 0; w < 4; ++w)
                    in[w] = sg.inputs().activeLabel(w, (bits >> w) & 1);
                size_t next = 0;
                const std::vector<Label> out = evaluateStreaming(
                    nl, in, [&] { return tables.at(next++); });
                EXPECT_EQ(next, tables.size());
                const std::vector<bool> plain =
                    nl.evaluate({bool(bits & 1), bool(bits & 2)},
                                {bool(bits & 4), bool(bits & 8)});
                // The evaluator's label, not just its decoded bit.
                EXPECT_EQ(out[0], plain[0] ? zero[acc] ^ sg.inputs().offset
                                           : zero[acc])
                    << ands << " ANDs, inputs " << bits;
            }
        });
    }
}

TEST(KeyStream, MatMultTablesMatchGoldenDigest)
{
    const Workload wl = vipWorkload("MatMult", false);
    golden::forEachCpuTier([&] {
        StreamingGarbler sg(wl.netlist, 2024);
        TableDigest walk;
        sg.run([&walk](const GarbledTable &t) { walk.add(t); });
        std::vector<Label> zero;
        TableDigest reference;
        for (const GarbledTable &t :
             referenceGarble(wl.netlist, sg.inputs(), zero))
            reference.add(t);
        EXPECT_EQ(walk.hex(), reference.hex());
        // Recorded on the hashRekeyedPair() walk.
        EXPECT_EQ(walk.hex(), "31269b0e5fc5f23d");
    });
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
    StreamingGarbler sg(nl, 5);
    sg.run([&wire_fifo](const GarbledTable &t) { wire_fifo.push_back(t); });

    const uint64_t x = 321, y = 207;
    const InputLabels &in = sg.inputs();
    std::vector<Label> inputs(nl.numInputs());
    for (uint32_t w = 0; w < 16; ++w) {
        inputs[w] = in.activeLabel(w, ((x >> w) & 1) != 0);
        inputs[16 + w] = in.activeLabel(16 + w, ((y >> w) & 1) != 0);
    }
    inputs[nl.constOne] = in.activeLabel(nl.constOne, true);

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
            outs[i].lsb() != sg.decodeBit(i);
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
}

} // namespace
} // namespace haac
