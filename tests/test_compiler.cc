/**
 * @file
 * Compiler-pass tests: dependence levels, full/segment reordering,
 * rename correctness (semantics preservation is covered end-to-end in
 * test_functional.cc), ESW live-bit marking, and window math.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/depgraph.h"
#include "core/compiler/passes.h"
#include "core/sim/config.h"
#include "crypto/prg.h"
#include "workloads/vip.h"

namespace haac {
namespace {

HaacProgram
chainProgram(uint32_t n)
{
    // in -> g0 -> g1 -> ... (a pure dependence chain).
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire cur = cb.andGate(a, b);
    for (uint32_t i = 1; i < n; ++i)
        cur = cb.xorGate(cur, a);
    cb.addOutput(cur);
    return assemble(cb.build());
}

HaacProgram
wideProgram(uint32_t n)
{
    // n independent ANDs: one dependence level.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(n);
    Bits b = cb.evaluatorInputs(n);
    for (uint32_t i = 0; i < n; ++i)
        cb.addOutput(cb.andGate(a[i], b[i]));
    return assemble(cb.build());
}

TEST(DepGraph, ChainHasDepthEqualLength)
{
    HaacProgram prog = chainProgram(10);
    DependenceGraph g(prog);
    EXPECT_EQ(g.numLevels(), 10u);
    EXPECT_NEAR(g.averageIlp(), 1.0, 1e-9);
}

TEST(DepGraph, WideCircuitHasOneLevel)
{
    HaacProgram prog = wideProgram(16);
    DependenceGraph g(prog);
    EXPECT_EQ(g.numLevels(), 1u);
    EXPECT_NEAR(g.averageIlp(), 16.0, 1e-9);
}

TEST(DepGraph, AdderLevelsAreLinearInWidth)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(addBits(cb, a, b));
    HaacProgram prog = assemble(cb.build());
    DependenceGraph g(prog);
    // The ripple carry chain dominates depth: ~2 levels per bit.
    EXPECT_GE(g.numLevels(), 16u);
    EXPECT_LE(g.numLevels(), 48u);
}

TEST(Reorder, FullIsLevelSorted)
{
    Prg prg(3);
    CircuitBuilder cb;
    Bits pool;
    for (Wire w : cb.garblerInputs(4))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(4))
        pool.push_back(w);
    for (int i = 0; i < 200; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        pool.push_back(prg.nextBit() ? cb.andGate(a, b)
                                     : cb.xorGate(a, b));
    }
    cb.addOutput(pool.back());
    HaacProgram prog = assemble(cb.build());

    DependenceGraph g(prog);
    auto order = reorderFull(prog);
    for (size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(g.level(order[i - 1]), g.level(order[i]));

    // Renamed program must still satisfy the address discipline and
    // be level-sorted under its own dependence graph.
    HaacProgram ro = applyOrder(prog, order);
    EXPECT_EQ(ro.check(), "");
    DependenceGraph g2(ro);
    for (size_t i = 1; i < ro.instrs.size(); ++i)
        EXPECT_LE(g2.level(i - 1), g2.level(i));
    EXPECT_EQ(g2.numLevels(), g.numLevels());
}

/** reorderFull()'s order as a stable sort of program order by level. */
std::vector<uint32_t>
stableSortByLevel(const HaacProgram &prog)
{
    DependenceGraph graph(prog);
    std::vector<uint32_t> order(prog.instrs.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&graph](uint32_t x, uint32_t y) {
                         return graph.level(x) < graph.level(y);
                     });
    return order;
}

TEST(Reorder, FullMatchesStableSortByLevel)
{
    for (const std::string &name : vipNames()) {
        const HaacProgram prog =
            assemble(vipWorkload(name, false).netlist);
        EXPECT_EQ(reorderFull(prog), stableSortByLevel(prog)) << name;
    }

    // A random DAG whose levels interleave in program order.
    Prg prg(11);
    CircuitBuilder cb;
    Bits pool = cb.garblerInputs(8);
    for (Wire w : cb.evaluatorInputs(8))
        pool.push_back(w);
    for (int i = 0; i < 2000; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        pool.push_back(prg.nextBit() ? cb.andGate(a, b)
                                     : cb.xorGate(a, b));
    }
    cb.addOutput(pool.back());
    const HaacProgram prog = assemble(cb.build());
    EXPECT_GT(DependenceGraph(prog).numLevels(), 10u);
    EXPECT_EQ(reorderFull(prog), stableSortByLevel(prog));
}

TEST(Reorder, SegmentRespectsSegmentBoundaries)
{
    HaacProgram prog = chainProgram(100);
    auto order = reorderSegment(prog, 10);
    // A chain cannot be reordered at all: order must be identity.
    for (uint32_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Reorder, SegmentKeepsInstructionsInTheirSegment)
{
    HaacProgram prog = wideProgram(64);
    auto order = reorderSegment(prog, 16);
    for (uint32_t pos = 0; pos < order.size(); ++pos)
        EXPECT_EQ(pos / 16, order[pos] / 16);
}

TEST(Reorder, ApplyOrderRemapsOutputs)
{
    HaacProgram prog = wideProgram(8);
    // Reverse the (independent) instructions.
    std::vector<uint32_t> order(prog.instrs.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = uint32_t(order.size()) - 1 - i;
    HaacProgram ro = applyOrder(prog, order);
    EXPECT_EQ(ro.check(), "");
    // Output k of the original is now produced by instruction n-1-k.
    for (uint32_t k = 0; k < 8; ++k)
        EXPECT_EQ(ro.outputs[k], ro.outputAddrOf(7 - k));
}

TEST(Window, BaseSlidesInHalfSteps)
{
    const uint32_t sww = 64; // half = 32
    EXPECT_EQ(windowBase(0, sww), 0u);
    EXPECT_EQ(windowBase(31, sww), 0u);
    EXPECT_EQ(windowBase(32, sww), 0u);
    EXPECT_EQ(windowBase(63, sww), 0u);
    EXPECT_EQ(windowBase(64, sww), 32u);
    EXPECT_EQ(windowBase(95, sww), 32u);
    EXPECT_EQ(windowBase(96, sww), 64u);
    EXPECT_TRUE(inWindow(40, 64, sww));
    EXPECT_FALSE(inWindow(31, 64, sww));
}

TEST(Esw, SmallProgramHasNoLiveWiresExceptOutputs)
{
    HaacProgram prog = wideProgram(8);
    const uint64_t live = applyEsw(prog, 1024);
    // Everything fits in one window: only program outputs stay live.
    EXPECT_EQ(live, 8u); // all 8 instructions are outputs here
    HaacProgram chain = chainProgram(64);
    const uint64_t live2 = applyEsw(chain, 1u << 20);
    EXPECT_EQ(live2, 1u);
}

TEST(Esw, MarksWiresReadPastTheirWindow)
{
    // Instruction 0 produces a wire that the LAST instruction reads;
    // with a tiny SWW the read is OoR, so instruction 0 must be live.
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire early = cb.andGate(a, b);
    Wire cur = early;
    for (int i = 0; i < 100; ++i)
        cur = cb.xorGate(cur, a);
    cb.addOutput(cb.andGate(cur, early));
    HaacProgram prog = assemble(cb.build());

    const uint32_t sww = 32;
    applyEsw(prog, sww);
    EXPECT_TRUE(prog.instrs[0].live);
    EXPECT_GT(countOorReads(prog, sww), 0u);
}

TEST(Esw, ClearEswMarksEverythingLive)
{
    HaacProgram prog = chainProgram(20);
    applyEsw(prog, 1u << 20);
    clearEsw(prog);
    for (const auto &ins : prog.instrs)
        EXPECT_TRUE(ins.live);
}

TEST(Esw, OorConsistentWithLiveness)
{
    // Property: every OoR operand's producer must be live (or be a
    // primary input) — otherwise the wire could not be refetched.
    Prg prg(17);
    CircuitBuilder cb;
    Bits pool;
    for (Wire w : cb.garblerInputs(8))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(8))
        pool.push_back(w);
    for (int i = 0; i < 3000; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        pool.push_back(prg.nextBit() ? cb.andGate(a, b)
                                     : cb.xorGate(a, b));
    }
    cb.addOutput(pool.back());
    HaacProgram prog = assemble(cb.build());

    const uint32_t sww = 256;
    applyEsw(prog, sww);
    const uint32_t first_out = prog.numInputs + 1;
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        const auto &ins = prog.instrs[k];
        const uint32_t base = windowBase(prog.outputAddrOf(k), sww);
        auto check = [&](uint32_t addr) {
            if (addr < base && addr >= first_out) {
                EXPECT_TRUE(prog.instrs[addr - first_out].live)
                    << "OoR read of spent wire " << addr;
            }
        };
        check(ins.a);
        if (ins.op != HaacOp::Not)
            check(ins.b);
    }
}

TEST(ExecutePlain, MatchesNetlistForAllReorders)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(12);
    Bits b = cb.evaluatorInputs(12);
    Bits m = mulBits(cb, a, b, 12);
    cb.addOutputs(m);
    cb.addOutput(ltSigned(cb, m, a));
    Netlist nl = cb.build();

    auto in_a = u64ToBits(0x9a3, 12);
    auto in_b = u64ToBits(0x4d1, 12);
    const auto want = nl.evaluate(in_a, in_b);

    HaacProgram base = assemble(nl);
    EXPECT_EQ(executePlain(base, in_a, in_b), want);
    for (ReorderKind kind : {ReorderKind::Full, ReorderKind::Segment}) {
        CompileOptions opts;
        opts.reorder = kind;
        opts.swwWires = 256;
        HaacProgram prog = compileProgram(base, opts);
        EXPECT_EQ(executePlain(prog, in_a, in_b), want)
            << reorderKindName(kind);
    }
}

TEST(CompilePipeline, StatsAreConsistent)
{
    HaacProgram prog = wideProgram(256);
    CompileOptions opts;
    opts.swwWires = 128;
    opts.reorder = ReorderKind::Segment;
    CompileStats stats;
    HaacProgram out = compileProgram(prog, opts, &stats);
    EXPECT_EQ(stats.instructions, prog.instrs.size());
    EXPECT_EQ(stats.andGates, prog.numAnd());
    EXPECT_EQ(stats.oorReads, countOorReads(out, opts.swwWires));
    EXPECT_EQ(out.check(), "");
}

TEST(CompilePipeline, BaselineKeepsOrder)
{
    HaacProgram prog = chainProgram(32);
    CompileOptions opts;
    opts.reorder = ReorderKind::Baseline;
    opts.esw = false;
    HaacProgram out = compileProgram(prog, opts);
    ASSERT_EQ(out.instrs.size(), prog.instrs.size());
    for (size_t i = 0; i < out.instrs.size(); ++i) {
        EXPECT_EQ(out.instrs[i].op, prog.instrs[i].op);
        EXPECT_EQ(out.instrs[i].a, prog.instrs[i].a);
    }
}

} // namespace
} // namespace haac
