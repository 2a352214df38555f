/**
 * @file
 * Property tests for the word-level stdlib: every operator is checked
 * against native integer semantics over randomized operands and
 * exhaustively at small widths.
 */
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"

namespace haac {
namespace {

/** Evaluate a two-operand word circuit on native inputs. */
uint64_t
evalBinary(uint32_t width,
           const std::function<Bits(CircuitBuilder &, const Bits &,
                                    const Bits &)> &op,
           uint64_t a, uint64_t b)
{
    CircuitBuilder cb;
    Bits wa = cb.garblerInputs(width);
    Bits wb = cb.evaluatorInputs(width);
    cb.addOutputs(op(cb, wa, wb));
    Netlist nl = cb.build();
    return bitsToU64(nl.evaluate(u64ToBits(a, width),
                                 u64ToBits(b, width)));
}

uint64_t
mask(uint32_t width)
{
    return width >= 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
}

struct StdlibParam
{
    uint32_t width;
    uint64_t seed;
};

class StdlibRandom : public ::testing::TestWithParam<StdlibParam>
{
  protected:
    uint32_t width() const { return GetParam().width; }

    std::pair<uint64_t, uint64_t>
    sample(int i) const
    {
        Prg prg(GetParam().seed + uint64_t(i) * 977);
        return {prg.nextU64() & mask(width()),
                prg.nextU64() & mask(width())};
    }
};

TEST_P(StdlibRandom, Add)
{
    for (int i = 0; i < 8; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), addBits, a, b),
                  (a + b) & mask(width()));
    }
}

TEST_P(StdlibRandom, Sub)
{
    for (int i = 0; i < 8; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), subBits, a, b),
                  (a - b) & mask(width()));
    }
}

TEST_P(StdlibRandom, Mul)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &y) {
        return mulBits(cb, x, y, uint32_t(x.size()));
    };
    for (int i = 0; i < 6; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), op, a, b),
                  (a * b) & mask(width()));
    }
}

TEST_P(StdlibRandom, LtUnsigned)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &y) {
        return Bits{ltUnsigned(cb, x, y)};
    };
    for (int i = 0; i < 8; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), op, a, b), a < b ? 1u : 0u);
    }
}

TEST_P(StdlibRandom, LtSigned)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &y) {
        return Bits{ltSigned(cb, x, y)};
    };
    const uint32_t w = width();
    auto to_signed = [w](uint64_t v) {
        const uint64_t sign = uint64_t(1) << (w - 1);
        return (v & sign) ? int64_t(v | ~mask(w)) : int64_t(v);
    };
    for (int i = 0; i < 8; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(w, op, a, b),
                  to_signed(a) < to_signed(b) ? 1u : 0u);
    }
}

TEST_P(StdlibRandom, Eq)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &y) {
        return Bits{eqBits(cb, x, y)};
    };
    for (int i = 0; i < 4; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), op, a, b), a == b ? 1u : 0u);
        EXPECT_EQ(evalBinary(width(), op, a, a), 1u);
    }
}

TEST_P(StdlibRandom, BitwiseOps)
{
    for (int i = 0; i < 4; ++i) {
        auto [a, b] = sample(i);
        EXPECT_EQ(evalBinary(width(), andBits, a, b), a & b);
        EXPECT_EQ(evalBinary(width(), xorBits, a, b), a ^ b);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, StdlibRandom,
    ::testing::Values(StdlibParam{4, 11}, StdlibParam{8, 22},
                      StdlibParam{16, 33}, StdlibParam{32, 44},
                      StdlibParam{61, 55}),
    [](const ::testing::TestParamInfo<StdlibParam> &info) {
        return "w" + std::to_string(info.param.width);
    });

TEST(Stdlib, AddExhaustive4Bit)
{
    for (uint64_t a = 0; a < 16; ++a)
        for (uint64_t b = 0; b < 16; ++b)
            EXPECT_EQ(evalBinary(4, addBits, a, b), (a + b) & 0xf);
}

TEST(Stdlib, MulExhaustive4Bit)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &y) {
        return mulBits(cb, x, y, 8);
    };
    for (uint64_t a = 0; a < 16; ++a)
        for (uint64_t b = 0; b < 16; ++b)
            EXPECT_EQ(evalBinary(4, op, a, b), a * b);
}

TEST(Stdlib, AddWithCarryChainsCorrectly)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    SumCarry sc = addWithCarry(cb, a, b, cb.constant(true));
    cb.addOutputs(sc.sum);
    cb.addOutput(sc.carry);
    Netlist nl = cb.build();
    auto out = nl.evaluate(u64ToBits(200, 8), u64ToBits(100, 8));
    EXPECT_EQ(bitsToU64(out) & 0xff, (200 + 100 + 1) & 0xff);
    EXPECT_TRUE(out[8]); // carry out of 301
}

TEST(Stdlib, ShiftConstAndVar)
{
    // Constant shifts.
    {
        CircuitBuilder cb;
        Bits a = cb.garblerInputs(16);
        cb.addOutputs(shlConst(cb, a, 3));
        cb.addOutputs(shrConst(cb, a, 5));
        Netlist nl = cb.build();
        auto out = nl.evaluate(u64ToBits(0xabcd, 16), {});
        EXPECT_EQ(bitsToU64({out.begin(), out.begin() + 16}),
                  uint64_t(0xabcd << 3) & 0xffff);
        EXPECT_EQ(bitsToU64({out.begin() + 16, out.end()}),
                  uint64_t(0xabcd >> 5));
    }
    // Variable shifts, including out-of-range amounts.
    for (uint64_t amt : {0ull, 1ull, 7ull, 15ull, 16ull, 31ull}) {
        CircuitBuilder cb;
        Bits a = cb.garblerInputs(16);
        Bits s = cb.evaluatorInputs(8);
        cb.addOutputs(shrVar(cb, a, s));
        Netlist nl = cb.build();
        auto out = nl.evaluate(u64ToBits(0x9e37, 16), u64ToBits(amt, 8));
        const uint64_t shr = amt >= 16 ? 0 : (0x9e37ull >> amt);
        EXPECT_EQ(bitsToU64(out), shr) << "amt=" << amt;
    }
}

TEST(Stdlib, KoggeStoneMatchesRipple)
{
    Prg prg(4242);
    for (uint32_t width : {1u, 2u, 7u, 8u, 16u, 32u, 33u}) {
        for (int i = 0; i < 4; ++i) {
            const uint64_t m = width >= 64
                                   ? ~uint64_t(0)
                                   : (uint64_t(1) << width) - 1;
            const uint64_t a = prg.nextU64() & m;
            const uint64_t b = prg.nextU64() & m;
            EXPECT_EQ(evalBinary(width, addBitsKoggeStone, a, b),
                      (a + b) & m)
                << "w=" << width;
        }
    }
}

TEST(Stdlib, KoggeStoneIsShallowerButBigger)
{
    auto build = [](bool kogge) {
        CircuitBuilder cb;
        Bits a = cb.garblerInputs(32);
        Bits b = cb.evaluatorInputs(32);
        cb.addOutputs(kogge ? addBitsKoggeStone(cb, a, b)
                            : addBits(cb, a, b));
        return cb.build();
    };
    Netlist rc = build(false), ks = build(true);
    EXPECT_GT(ks.numAndGates(), rc.numAndGates());
    // Depth via a quick level scan on the gate list.
    auto depth = [](const Netlist &nl) {
        std::vector<uint32_t> lvl(nl.numWires(), 0);
        uint32_t deepest = 0;
        for (uint32_t g = 0; g < nl.numGates(); ++g) {
            const Gate &gate = nl.gates[g];
            lvl[nl.outputWireOf(g)] =
                1 + std::max(lvl[gate.a], lvl[gate.b]);
            deepest = std::max(deepest, lvl[nl.outputWireOf(g)]);
        }
        return deepest;
    };
    EXPECT_LT(depth(ks), depth(rc) / 3);
}

TEST(Stdlib, PopcountMatchesBuiltin)
{
    for (uint64_t v : {0ull, 1ull, 0xffull, 0xa5a5ull, 0xffffull,
                       0x1234ull}) {
        CircuitBuilder cb;
        Bits a = cb.garblerInputs(16);
        cb.addOutputs(popcount(cb, a));
        Netlist nl = cb.build();
        auto out = nl.evaluate(u64ToBits(v, 16), {});
        EXPECT_EQ(bitsToU64(out), uint64_t(__builtin_popcountll(v)));
    }
}

TEST(Stdlib, ReluKernel)
{
    auto op = [](CircuitBuilder &cb, const Bits &x, const Bits &) {
        return reluBits(cb, x);
    };
    EXPECT_EQ(evalBinary(8, op, 0x12, 0), 0x12u);
    EXPECT_EQ(evalBinary(8, op, 0x80, 0), 0u);
    EXPECT_EQ(evalBinary(8, op, 0xff, 0), 0u);
    EXPECT_EQ(evalBinary(8, op, 0, 0), 0u);
}

TEST(Stdlib, ReluCostIsPaper33Gates)
{
    // Table 2: a 32-bit ReLU is 33 gates (32 AND + 1 NOT-as-XOR).
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(32);
    cb.addOutputs(reluBits(cb, a));
    Netlist nl = cb.build();
    EXPECT_EQ(nl.numGates(), 33u);
    EXPECT_NEAR(nl.andPercent(), 96.97, 0.01);
}

TEST(Stdlib, CondSwapSortsPairs)
{
    for (auto [a, b] : {std::pair<uint64_t, uint64_t>{3, 9},
                        {9, 3},
                        {7, 7}}) {
        CircuitBuilder cb;
        Bits wa = cb.garblerInputs(8);
        Bits wb = cb.evaluatorInputs(8);
        Wire c = ltSigned(cb, wb, wa);
        condSwap(cb, c, wa, wb);
        cb.addOutputs(wa);
        cb.addOutputs(wb);
        Netlist nl = cb.build();
        auto out = nl.evaluate(u64ToBits(a, 8), u64ToBits(b, 8));
        EXPECT_EQ(bitsToU64({out.begin(), out.begin() + 8}),
                  std::min(a, b));
        EXPECT_EQ(bitsToU64({out.begin() + 8, out.end()}),
                  std::max(a, b));
    }
}

TEST(Stdlib, ExtendOps)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(4);
    cb.addOutputs(zeroExtend(cb, a, 8));
    cb.addOutputs(zeroExtend(cb, a, 3));
    Netlist nl = cb.build();
    auto out = nl.evaluate(u64ToBits(0xc, 4), {});
    EXPECT_EQ(bitsToU64({out.begin(), out.begin() + 8}), 0x0cu);
    EXPECT_EQ(bitsToU64({out.begin() + 8, out.end()}), 0x4u);
}

TEST(Stdlib, ReduceAndOr)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(5);
    cb.addOutput(reduceAnd(cb, a));
    cb.addOutput(reduceOr(cb, a));
    Netlist nl = cb.build();
    EXPECT_TRUE(nl.evaluate(u64ToBits(0x1f, 5), {})[0]);
    EXPECT_FALSE(nl.evaluate(u64ToBits(0x1e, 5), {})[0]);
    EXPECT_TRUE(nl.evaluate(u64ToBits(0x02, 5), {})[1]);
    EXPECT_FALSE(nl.evaluate(u64ToBits(0, 5), {})[1]);
}

} // namespace
} // namespace haac
