/**
 * @file
 * Netlist optimizer tests: dead-gate elimination, duplicate merging,
 * fixed-point composition, and semantics preservation on random
 * circuits.
 */
#include <gtest/gtest.h>

#include "circuit/analyze.h"
#include "circuit/builder.h"
#include "circuit/optimize.h"
#include "circuit/stdlib.h"
#include "crypto/prg.h"

namespace haac {
namespace {

TEST(Optimize, RemovesUnreachableGates)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire live = cb.andGate(a, b);
    cb.xorGate(a, b);          // dead
    cb.andGate(live, a);       // dead
    cb.addOutput(live);
    Netlist nl = cb.build();

    OptimizeStats stats;
    Netlist opt = eliminateDeadGates(nl, &stats);
    EXPECT_EQ(stats.deadGatesRemoved, 2u);
    EXPECT_EQ(opt.numGates(), 1u);
    EXPECT_EQ(opt.check(), "");
    EXPECT_EQ(opt.evaluate({true}, {true}), nl.evaluate({true}, {true}));
}

TEST(Optimize, KeepsEverythingWhenAllLive)
{
    CircuitBuilder cb;
    Wire cin = cb.garblerInput();
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    SumCarry sc = addWithCarry(cb, a, b, cin);
    cb.addOutputs(sc.sum);
    cb.addOutput(sc.carry); // keep the carry chain fully live
    Netlist nl = cb.build();
    OptimizeStats stats;
    Netlist opt = eliminateDeadGates(nl, &stats);
    EXPECT_EQ(stats.deadGatesRemoved, 0u);
    EXPECT_EQ(opt.numGates(), nl.numGates());
}

TEST(Optimize, AdderWithoutCarryOutHasDeadTail)
{
    // addBits drops the carry-out, leaving its last majority step
    // dead — the optimizer should find exactly that.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    cb.addOutputs(addBits(cb, a, b));
    Netlist nl = cb.build();
    OptimizeStats stats;
    Netlist opt = eliminateDeadGates(nl, &stats);
    // Dead: the carry tail (up to 3 gates) and possibly the folded
    // constant-zero generator.
    EXPECT_GT(stats.deadGatesRemoved, 0u);
    EXPECT_LE(stats.deadGatesRemoved, 4u);
    auto in_a = u64ToBits(200, 8), in_b = u64ToBits(100, 8);
    EXPECT_EQ(opt.evaluate(in_a, in_b), nl.evaluate(in_a, in_b));
}

TEST(Optimize, MergesCommutativeDuplicates)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire x1 = cb.andGate(a, b);
    Wire x2 = cb.andGate(b, a); // same gate, swapped operands
    cb.addOutput(cb.xorGate(x1, x2));
    Netlist nl = cb.build();

    OptimizeStats stats;
    Netlist opt = mergeDuplicateGates(nl, &stats);
    EXPECT_EQ(stats.duplicatesMerged, 1u);
    EXPECT_EQ(opt.check(), "");
    for (bool va : {false, true}) {
        for (bool vb : {false, true}) {
            EXPECT_EQ(opt.evaluate({va}, {vb}),
                      nl.evaluate({va}, {vb}));
        }
    }
}

TEST(Optimize, MergeChainsResolveTransitively)
{
    CircuitBuilder cb(/*fold_constants=*/false);
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire x1 = cb.xorGate(a, b);
    Wire x2 = cb.xorGate(a, b);          // dup of x1
    Wire y1 = cb.andGate(x1, a);
    Wire y2 = cb.andGate(x2, a);         // dup after aliasing x2->x1
    cb.addOutput(cb.xorGate(y1, y2));
    Netlist nl = cb.build();

    OptimizeStats stats;
    Netlist opt = optimizeNetlist(nl, &stats);
    EXPECT_GE(stats.duplicatesMerged, 2u);
    // xor(y, y) remains structurally (it isn't constant-folded here),
    // but both dup layers are gone.
    EXPECT_LE(opt.numGates(), 3u);
    for (bool va : {false, true}) {
        for (bool vb : {false, true}) {
            EXPECT_EQ(opt.evaluate({va}, {vb}),
                      nl.evaluate({va}, {vb}));
        }
    }
}

TEST(Optimize, RandomCircuitsPreserveSemantics)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Prg prg(seed * 999);
        CircuitBuilder cb(/*fold_constants=*/false);
        Bits pool;
        for (Wire w : cb.garblerInputs(6))
            pool.push_back(w);
        for (Wire w : cb.evaluatorInputs(6))
            pool.push_back(w);
        for (int i = 0; i < 300; ++i) {
            Wire a = pool[prg.nextRange(pool.size())];
            Wire b = pool[prg.nextRange(pool.size())];
            pool.push_back(prg.nextBit() ? cb.andGate(a, b)
                                         : cb.xorGate(a, b));
        }
        for (int i = 0; i < 4; ++i)
            cb.addOutput(pool[pool.size() - 1 - size_t(i)]);
        Netlist nl = cb.build();

        OptimizeStats stats;
        Netlist opt = optimizeNetlist(nl, &stats);
        EXPECT_EQ(opt.check(), "");
        EXPECT_LE(opt.numGates(), nl.numGates());

        // The analyzer referees the optimizer: its dead-gate and
        // duplicate criteria are the passes' own, so the fixpoint
        // must carry neither (constant cones may remain — the
        // optimizer deliberately does not constant-fold).
        const CircuitLintReport rep = analyzeNetlist(opt);
        EXPECT_TRUE(rep.clean()) << "seed " << seed << ": "
                                 << rep.firstError();
        EXPECT_FALSE(rep.has(DiagCode::DeadGate))
            << "seed " << seed;
        EXPECT_FALSE(rep.has(DiagCode::DuplicateGate))
            << "seed " << seed;
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<bool> ga(6), eb(6);
            for (int i = 0; i < 6; ++i) {
                ga[size_t(i)] = prg.nextBit();
                eb[size_t(i)] = prg.nextBit();
            }
            EXPECT_EQ(opt.evaluate(ga, eb), nl.evaluate(ga, eb))
                << "seed " << seed;
        }
    }
}

TEST(Optimize, EachPassOutputIsAnalyzerClean)
{
    // Every individual pass must hand downstream a structurally valid
    // netlist, and each pass must fully discharge its own lint: no
    // dead gate survives eliminateDeadGates, no structural duplicate
    // survives mergeDuplicateGates.
    for (uint64_t seed = 21; seed <= 24; ++seed) {
        Prg prg(seed * 777);
        CircuitBuilder cb(/*fold_constants=*/false);
        Bits pool;
        for (Wire w : cb.garblerInputs(5))
            pool.push_back(w);
        for (Wire w : cb.evaluatorInputs(5))
            pool.push_back(w);
        for (int i = 0; i < 200; ++i) {
            Wire a = pool[prg.nextRange(pool.size())];
            Wire b = pool[prg.nextRange(pool.size())];
            pool.push_back(prg.nextBit() ? cb.andGate(a, b)
                                         : cb.xorGate(a, b));
        }
        for (int i = 0; i < 3; ++i)
            cb.addOutput(pool[pool.size() - 1 - size_t(i)]);
        const Netlist nl = cb.build();

        const Netlist dead = eliminateDeadGates(nl);
        EXPECT_TRUE(analyzeNetlist(dead).clean()) << "seed " << seed;
        EXPECT_FALSE(
            analyzeNetlist(dead).has(DiagCode::DeadGate))
            << "seed " << seed;

        const Netlist merged = mergeDuplicateGates(nl);
        EXPECT_TRUE(analyzeNetlist(merged).clean()) << "seed " << seed;
        EXPECT_FALSE(
            analyzeNetlist(merged).has(DiagCode::DuplicateGate))
            << "seed " << seed;

        // Each single pass still preserves semantics.
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<bool> ga(5), eb(5);
            for (int i = 0; i < 5; ++i) {
                ga[size_t(i)] = prg.nextBit();
                eb[size_t(i)] = prg.nextBit();
            }
            const std::vector<bool> want = nl.evaluate(ga, eb);
            EXPECT_EQ(dead.evaluate(ga, eb), want) << "seed " << seed;
            EXPECT_EQ(merged.evaluate(ga, eb), want)
                << "seed " << seed;
        }
    }
}

TEST(Optimize, OutputsOnInputWiresSurvive)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    cb.xorGate(a, b); // dead
    cb.addOutput(a);
    Netlist nl = cb.build();
    Netlist opt = optimizeNetlist(nl);
    EXPECT_EQ(opt.numGates(), 0u);
    EXPECT_EQ(opt.outputs[0], a);
}

} // namespace
} // namespace haac
