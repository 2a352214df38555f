/**
 * @file
 * Float32 tests: the circuit is bit-exact against the SoftFloat host
 * model, and the host model stays within rounding distance of native
 * IEEE floats.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/builder.h"
#include "circuit/float32.h"
#include "crypto/prg.h"

namespace haac {
namespace {

uint64_t
evalFloatBinary(Bits (*op)(CircuitBuilder &, const Bits &, const Bits &),
                uint32_t a, uint32_t b)
{
    CircuitBuilder cb;
    Bits wa = cb.garblerInputs(32);
    Bits wb = cb.evaluatorInputs(32);
    cb.addOutputs(op(cb, wa, wb));
    Netlist nl = cb.build();
    return bitsToU64(nl.evaluate(u64ToBits(a, 32), u64ToBits(b, 32)));
}

float
ulpOf(float x)
{
    const float ax = std::fabs(x);
    // ilogb(0) is FP_ILOGB0 (INT_MIN); subtracting from it overflows.
    if (ax == 0.0f || !std::isfinite(ax))
        return std::ldexp(1.0f, -126);
    return std::max(std::ldexp(1.0f, int(std::ilogb(ax)) - 23),
                    std::ldexp(1.0f, -126));
}

TEST(SoftFloat, MulMatchesNativeWithinUlp)
{
    Prg prg(31);
    for (int i = 0; i < 500; ++i) {
        const float a = float(int64_t(prg.nextU64() % 4000) - 2000) /
                        37.0f;
        const float b = float(int64_t(prg.nextU64() % 4000) - 2000) /
                        53.0f;
        const float got =
            bitsFromFloat(sfMul(floatToBits(a), floatToBits(b)));
        const float want = a * b;
        EXPECT_LE(std::fabs(got - want), 2 * ulpOf(want))
            << a << " * " << b;
    }
}

TEST(SoftFloat, AddMatchesNativeWithinUlp)
{
    Prg prg(32);
    for (int i = 0; i < 500; ++i) {
        const float a = float(int64_t(prg.nextU64() % 100000) - 50000) /
                        129.0f;
        const float b = float(int64_t(prg.nextU64() % 100000) - 50000) /
                        65.0f;
        const float got =
            bitsFromFloat(sfAdd(floatToBits(a), floatToBits(b)));
        const float want = a + b;
        EXPECT_LE(std::fabs(got - want),
                  4 * std::max(ulpOf(want), ulpOf(a) + ulpOf(b)))
            << a << " + " << b;
    }
}

TEST(SoftFloat, IdentitiesAndSpecialCases)
{
    const uint32_t one = floatToBits(1.0f);
    const uint32_t two = floatToBits(2.0f);
    const uint32_t zero = floatToBits(0.0f);
    EXPECT_EQ(sfMul(one, two), two);
    EXPECT_EQ(sfAdd(zero, two), two);
    EXPECT_EQ(sfAdd(two, zero), two);
    EXPECT_EQ(sfMul(zero, two), zero);
    EXPECT_EQ(sfSub(two, two) & 0x7fffffffu, 0u); // exact cancel
    // x - (-x) doubles.
    const uint32_t neg_two = floatToBits(-2.0f);
    EXPECT_EQ(sfSub(two, neg_two), floatToBits(4.0f));
}

TEST(SoftFloat, PowerOfTwoArithmeticIsExact)
{
    for (int ea = -10; ea <= 10; ea += 3) {
        for (int eb = -10; eb <= 10; eb += 4) {
            const float a = std::ldexp(1.0f, ea);
            const float b = std::ldexp(1.0f, eb);
            EXPECT_EQ(bitsFromFloat(sfMul(floatToBits(a),
                                          floatToBits(b))),
                      a * b);
            EXPECT_EQ(bitsFromFloat(sfAdd(floatToBits(a),
                                          floatToBits(b))),
                      a + b);
        }
    }
}

TEST(SoftFloat, SubnormalsFlushToZero)
{
    const uint32_t subnormal = 0x00000001;
    const uint32_t one = floatToBits(1.0f);
    EXPECT_EQ(sfAdd(subnormal, one), one);
    EXPECT_EQ(sfMul(subnormal, one) & 0x7fffffffu, 0u);
}

TEST(SoftFloat, OverflowSaturates)
{
    const uint32_t big = floatToBits(3e38f);
    const uint32_t sat = sfMul(big, big);
    EXPECT_EQ((sat >> 23) & 0xff, 254u);
    EXPECT_EQ(sat & 0x7fffff, 0x7fffffu);
}

class FloatCircuitRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FloatCircuitRandom, MulBitExactVsSoftFloat)
{
    Prg prg(GetParam());
    for (int i = 0; i < 3; ++i) {
        const float a = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        17.0f;
        const float b = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        23.0f;
        const uint32_t ab = floatToBits(a), bb = floatToBits(b);
        EXPECT_EQ(evalFloatBinary(floatMulCircuit, ab, bb),
                  sfMul(ab, bb))
            << a << " * " << b;
    }
}

TEST_P(FloatCircuitRandom, AddBitExactVsSoftFloat)
{
    Prg prg(GetParam() ^ 0xf00d);
    for (int i = 0; i < 3; ++i) {
        const float a = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        11.0f;
        const float b = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        3.0f;
        const uint32_t ab = floatToBits(a), bb = floatToBits(b);
        EXPECT_EQ(evalFloatBinary(floatAddCircuit, ab, bb),
                  sfAdd(ab, bb))
            << a << " + " << b;
    }
}

TEST_P(FloatCircuitRandom, SubBitExactVsSoftFloat)
{
    Prg prg(GetParam() ^ 0xbeef);
    for (int i = 0; i < 3; ++i) {
        const float a = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        7.0f;
        const float b = float(int64_t(prg.nextU64() % 2000) - 1000) /
                        13.0f;
        const uint32_t ab = floatToBits(a), bb = floatToBits(b);
        EXPECT_EQ(evalFloatBinary(floatSubCircuit, ab, bb),
                  sfSub(ab, bb))
            << a << " - " << b;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloatCircuitRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(FloatCircuit, SpecialCasesBitExact)
{
    const uint32_t cases[] = {
        floatToBits(0.0f),  floatToBits(-0.0f), floatToBits(1.0f),
        floatToBits(-1.0f), floatToBits(0.5f),  floatToBits(2.0f),
        floatToBits(1.5f),  floatToBits(-2.5f), floatToBits(1e-20f),
        floatToBits(1e20f),
    };
    for (uint32_t a : cases) {
        for (uint32_t b : cases) {
            EXPECT_EQ(evalFloatBinary(floatAddCircuit, a, b),
                      sfAdd(a, b))
                << std::hex << a << " + " << b;
            EXPECT_EQ(evalFloatBinary(floatMulCircuit, a, b),
                      sfMul(a, b))
                << std::hex << a << " * " << b;
        }
    }
}

TEST(FloatCircuit, CancellationBitExact)
{
    // Subtraction of nearly equal values exercises the normalizer.
    const float pairs[][2] = {
        {1.0000001f, 1.0f}, {1024.5f, 1024.25f}, {3.14159f, 3.14158f},
    };
    for (const auto &p : pairs) {
        const uint32_t a = floatToBits(p[0]), b = floatToBits(p[1]);
        EXPECT_EQ(evalFloatBinary(floatSubCircuit, a, b), sfSub(a, b));
        EXPECT_EQ(evalFloatBinary(floatSubCircuit, b, a), sfSub(b, a));
    }
}

} // namespace
} // namespace haac
