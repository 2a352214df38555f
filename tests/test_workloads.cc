/**
 * @file
 * VIP workload tests: every circuit evaluates (plaintext) to its
 * reference outputs, Mersenne matches std::mt19937, and the suite's
 * characteristics behave like Table 2 (ReLU depth 2, AND fractions).
 */
#include <gtest/gtest.h>

#include <random>

#include "circuit/builder.h"
#include "circuit/float32.h"
#include "core/compiler/depgraph.h"
#include "core/isa/program.h"
#include "workloads/vip.h"

namespace haac {
namespace {

void
expectCircuitMatchesReference(const Workload &wl)
{
    ASSERT_EQ(wl.netlist.check(), "");
    auto out = wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    ASSERT_EQ(out.size(), wl.expectedOutputs.size()) << wl.name;
    EXPECT_EQ(out, wl.expectedOutputs) << wl.name;
}

TEST(Vip, BubbleSortSorts)
{
    expectCircuitMatchesReference(makeBubbleSort(12, 16));
}

TEST(Vip, BubbleSortHandlesNegativeValues)
{
    Workload wl = makeBubbleSort(8, 32);
    expectCircuitMatchesReference(wl);
    // Outputs must be monotone as signed ints.
    auto out = wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    int32_t prev = INT32_MIN;
    for (size_t i = 0; i < out.size(); i += 32) {
        int32_t v = int32_t(
            bitsToU64({out.begin() + long(i), out.begin() + long(i) + 32}));
        EXPECT_LE(prev, v);
        prev = v;
    }
}

TEST(Vip, DotProduct)
{
    expectCircuitMatchesReference(makeDotProduct(8, 32));
    expectCircuitMatchesReference(makeDotProduct(3, 16));
}

TEST(Vip, MersenneUnseededMatchesReference)
{
    expectCircuitMatchesReference(makeMersenne(8, false));
}

TEST(Vip, MersenneSeededMatchesStdMt19937)
{
    // The gold standard: the circuit's draws equal std::mt19937's.
    Workload wl = makeMersenne(6, true);
    expectCircuitMatchesReference(wl);
    auto out = wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    std::mt19937 ref(5489u);
    for (int i = 0; i < 6; ++i) {
        const uint32_t got = uint32_t(bitsToU64(
            {out.begin() + 32 * i, out.begin() + 32 * (i + 1)}));
        EXPECT_EQ(got, ref()) << "draw " << i;
    }
}

TEST(Vip, TriangleCount)
{
    expectCircuitMatchesReference(makeTriangleCount(8));
    expectCircuitMatchesReference(makeTriangleCount(12));
}

TEST(Vip, TriangleCompleteGraphFormula)
{
    // K6 has C(6,3) = 20 triangles.
    Workload wl = makeTriangleCount(6);
    std::vector<bool> all_edges(wl.garblerBits.size(), true);
    std::vector<bool> all_edges_e(wl.evaluatorBits.size(), true);
    auto out = wl.netlist.evaluate(all_edges, all_edges_e);
    EXPECT_EQ(bitsToU64(out), 20u);
}

TEST(Vip, Hamming)
{
    expectCircuitMatchesReference(makeHamming(64));
    expectCircuitMatchesReference(makeHamming(333));
}

TEST(Vip, MatMult)
{
    expectCircuitMatchesReference(makeMatMult(2, 32));
    expectCircuitMatchesReference(makeMatMult(3, 16));
}

TEST(Vip, Relu)
{
    expectCircuitMatchesReference(makeRelu(16, 32));
}

TEST(Vip, ReluShapeMatchesTable2)
{
    // Table 2: ReLU has 2 levels and 96.97% AND.
    Workload wl = makeRelu(32, 32);
    HaacProgram prog = assemble(wl.netlist);
    DependenceGraph g(prog);
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_NEAR(wl.netlist.andPercent(), 96.97, 0.05);
}

TEST(Vip, GradDescBitExact)
{
    expectCircuitMatchesReference(makeGradDesc(2, 2));
    expectCircuitMatchesReference(makeGradDesc(3, 3));
}

TEST(Vip, GradDescConvergesTowardSlope)
{
    // After a few rounds the learned w should approach 0.8.
    Workload wl = makeGradDesc(4, 5);
    auto out = wl.netlist.evaluate(wl.garblerBits, wl.evaluatorBits);
    const uint32_t w_bits =
        uint32_t(bitsToU64({out.begin(), out.begin() + 32}));
    const float w = bitsFromFloat(w_bits);
    EXPECT_GT(w, 0.2f);
    EXPECT_LT(w, 1.5f);
}

TEST(Vip, SuiteHasEightEntriesInTableOrder)
{
    const std::vector<std::string> &names = vipNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "BubbSt");
    EXPECT_EQ(names[7], "GradDesc");
    for (const std::string &name : names) {
        const Workload wl = vipWorkload(name, /*paper_scale=*/false);
        EXPECT_EQ(wl.name, name);
        EXPECT_EQ(wl.netlist.check(), "") << wl.name;
        EXPECT_GT(wl.netlist.numGates(), 0u) << wl.name;
        EXPECT_TRUE(wl.plaintextKernel != nullptr) << wl.name;
    }
}

TEST(Vip, EditDistanceMatchesReference)
{
    expectCircuitMatchesReference(makeEditDistance(8, 10, 2, false));
    expectCircuitMatchesReference(makeEditDistance(6, 6, 8, false));
    expectCircuitMatchesReference(makeEditDistance(8, 10, 2, true));
}

TEST(Vip, EditDistanceIdenticalStringsIsZero)
{
    Workload wl = makeEditDistance(6, 6, 2);
    // Feed both parties the same string.
    std::vector<bool> same = wl.garblerBits;
    auto out = wl.netlist.evaluate(same, same);
    EXPECT_EQ(bitsToU64(out), 0u);
}

TEST(Vip, PaperScaleAnchorsHamm)
{
    // Regression guard for the Table 2 rows we reproduce exactly:
    // Hamm at paper scale (40960-bit strings).
    Workload wl = makeHamming(40960);
    HaacProgram prog = assemble(wl.netlist);
    DependenceGraph g(prog);
    EXPECT_EQ(wl.netlist.numGates(), 327600u); // paper: 328k
    EXPECT_EQ(g.numLevels(), 76u);             // paper: 76
    EXPECT_NEAR(wl.netlist.andPercent(), 25.0, 0.01);
    EXPECT_NEAR(g.averageIlp(), 4310.5, 1.0);  // paper: 4311
}

TEST(Vip, PaperScaleAnchorsRelu)
{
    Workload wl = makeRelu(2048, 32);
    EXPECT_EQ(wl.netlist.numGates(), 2048u * 33); // paper: 68k
    HaacProgram prog = assemble(wl.netlist);
    DependenceGraph g(prog);
    EXPECT_EQ(g.numLevels(), 2u);
    EXPECT_NEAR(g.averageIlp(), 33792.0, 1.0); // paper: 33792
}

TEST(Vip, UnknownNameThrows)
{
    EXPECT_THROW(vipWorkload("NotABenchmark", false),
                 std::invalid_argument);
}

TEST(Vip, PlaintextKernelsRun)
{
    for (const std::string &name : vipNames())
        EXPECT_NO_THROW(vipWorkload(name, false).plaintextKernel()) << name;
}

TEST(Vip, DefaultSuiteEvaluatesToExpected)
{
    // Full-suite plaintext equivalence at default scale.
    for (const std::string &name : vipNames()) {
        const Workload wl = vipWorkload(name, false);
        auto out = wl.netlist.evaluate(wl.garblerBits,
                                       wl.evaluatorBits);
        EXPECT_EQ(out, wl.expectedOutputs) << wl.name;
    }
}

} // namespace
} // namespace haac
