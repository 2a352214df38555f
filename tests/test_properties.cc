/**
 * @file
 * Cross-cutting property and fuzz tests:
 *  - builder constant folding never changes semantics (fold vs
 *    no-fold circuits agree on all inputs);
 *  - small circuits are exhaustively correct through the full secure
 *    protocol (every input combination);
 *  - randomized compiler/config fuzzing through the functional
 *    machine (random circuits x random SWW/GE/reorder choices);
 *  - engine monotonicity invariants (more latency never helps; a
 *    bigger SWW never increases wire traffic).
 */
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "crypto/prg.h"
#include "gc/protocol.h"
#include "workloads/vip.h"

namespace haac {
namespace {

/** Replay the same random gate sequence into a builder. */
Netlist
buildRandom(uint64_t seed, bool fold, uint32_t gates)
{
    Prg prg(seed);
    CircuitBuilder cb(fold);
    Bits pool;
    for (Wire w : cb.garblerInputs(5))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(5))
        pool.push_back(w);
    // Sprinkle constants into the pool so folding has work to do.
    pool.push_back(cb.constant(false));
    pool.push_back(cb.constant(true));
    for (uint32_t i = 0; i < gates; ++i) {
        Wire a = pool[prg.nextRange(pool.size())];
        Wire b = pool[prg.nextRange(pool.size())];
        switch (prg.nextRange(4)) {
          case 0:
            pool.push_back(cb.andGate(a, b));
            break;
          case 1:
            pool.push_back(cb.xorGate(a, b));
            break;
          case 2:
            pool.push_back(cb.orGate(a, b));
            break;
          default:
            pool.push_back(cb.notGate(a));
        }
    }
    for (int i = 0; i < 6; ++i)
        cb.addOutput(pool[pool.size() - 1 - size_t(i)]);
    return cb.build();
}

class FoldEquivalence : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FoldEquivalence, FoldedAndUnfoldedAgreeOnAllInputs)
{
    Netlist folded = buildRandom(GetParam(), true, 120);
    Netlist unfolded = buildRandom(GetParam(), false, 120);
    EXPECT_LE(folded.numGates(), unfolded.numGates());
    for (uint32_t ga = 0; ga < 32; ++ga) {
        for (uint32_t eb = 0; eb < 32; eb += 5) {
            auto in_g = u64ToBits(ga, 5);
            auto in_e = u64ToBits(eb, 5);
            EXPECT_EQ(folded.evaluate(in_g, in_e),
                      unfolded.evaluate(in_g, in_e))
                << "ga=" << ga << " eb=" << eb;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldEquivalence,
                         ::testing::Range<uint64_t>(100, 110));

TEST(ExhaustiveProtocol, ThreeBitAdderAllInputs)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(3);
    Bits b = cb.evaluatorInputs(3);
    SumCarry sc = addWithCarry(cb, a, b, cb.constant(false));
    cb.addOutputs(sc.sum);
    cb.addOutput(sc.carry);
    Netlist nl = cb.build();

    for (uint32_t x = 0; x < 8; ++x) {
        for (uint32_t y = 0; y < 8; ++y) {
            RemoteResult res = runProtocol(nl, u64ToBits(x, 3),
                                             u64ToBits(y, 3),
                                             /*seed=*/x * 8 + y + 1);
            EXPECT_EQ(bitsToU64(res.outputs), x + y)
                << x << "+" << y;
        }
    }
}

TEST(ExhaustiveProtocol, TwoBitComparatorAllInputs)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(2);
    Bits b = cb.evaluatorInputs(2);
    cb.addOutput(ltUnsigned(cb, a, b));
    cb.addOutput(eqBits(cb, a, b));
    Netlist nl = cb.build();
    for (uint32_t x = 0; x < 4; ++x) {
        for (uint32_t y = 0; y < 4; ++y) {
            RemoteResult res =
                runProtocol(nl, u64ToBits(x, 2), u64ToBits(y, 2));
            EXPECT_EQ(res.outputs[0], x < y);
            EXPECT_EQ(res.outputs[1], x == y);
        }
    }
}

/** Random circuit x random hardware/compiler configs, bit-true. */
TEST(Fuzz, CompilerAndFunctionalMachineAgreeUnderRandomConfigs)
{
    Prg meta(20260609);
    for (int trial = 0; trial < 12; ++trial) {
        const uint64_t seed = meta.nextU64();
        Netlist nl = buildRandom(seed, true,
                                 200 + uint32_t(meta.nextRange(1500)));

        HaacConfig cfg;
        cfg.numGes = 1u << meta.nextRange(5);             // 1..16
        cfg.swwBytes = (64u << meta.nextRange(5)) * 16;   // 64..1024 w
        CompileOptions opts;
        const uint64_t kind = meta.nextRange(3);
        opts.reorder = kind == 0   ? ReorderKind::Baseline
                       : kind == 1 ? ReorderKind::Full
                                   : ReorderKind::Segment;
        opts.esw = meta.nextBit();
        opts.swwWires = cfg.swwWires();

        HaacProgram prog = compileProgram(assemble(nl), opts);
        StreamSet set = buildStreams(prog, cfg);

        std::vector<bool> ga(5), eb(5);
        for (int i = 0; i < 5; ++i) {
            ga[size_t(i)] = meta.nextBit();
            eb[size_t(i)] = meta.nextBit();
        }
        FunctionalResult res =
            runFunctional(prog, set, cfg, ga, eb, seed | 1);
        ASSERT_TRUE(res.ok)
            << "trial " << trial << " ges=" << cfg.numGes
            << " sww=" << cfg.swwWires()
            << " ro=" << reorderKindName(opts.reorder) << ": "
            << res.error;
        EXPECT_EQ(res.outputs, nl.evaluate(ga, eb)) << "trial "
                                                    << trial;

        // The timing engine must accept the same streams untouched.
        SimStats stats = runSimulation(prog, cfg, set);
        EXPECT_EQ(stats.instructions, prog.instrs.size());
        EXPECT_EQ(stats.oorReads, set.totalOor);
    }
}

TEST(EngineInvariants, HigherLatencyNeverHelps)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(32);
    Bits b = cb.evaluatorInputs(32);
    cb.addOutputs(mulBits(cb, a, b, 32));
    HaacProgram prog = assemble(cb.build());
    uint64_t prev = 0;
    for (uint32_t lat : {20u, 100u, 400u}) {
        HaacConfig cfg;
        cfg.numGes = 4;
        cfg.dramLatency = lat;
        SimStats s = simulate(prog, cfg);
        EXPECT_GE(s.cycles + 2, prev) << "latency " << lat;
        prev = s.cycles;
    }
}

TEST(EngineInvariants, BiggerSwwNeverIncreasesWireTraffic)
{
    Workload wl = makeDotProduct(16, 32);
    uint64_t prev = ~uint64_t(0);
    for (uint32_t wires : {512u, 2048u, 8192u}) {
        HaacConfig cfg;
        cfg.numGes = 4;
        cfg.swwBytes = size_t(wires) * kLabelBytes;
        CompileOptions opts;
        opts.reorder = ReorderKind::Full;
        opts.swwWires = wires;
        HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
        SimStats s = simulate(prog, cfg);
        EXPECT_LE(s.wireTrafficBytes(), prev);
        prev = s.wireTrafficBytes();
    }
}

TEST(EngineInvariants, IssueCountConservation)
{
    Workload wl = makeHamming(256);
    HaacConfig cfg;
    cfg.numGes = 8;
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
    for (SimMode mode : {SimMode::Combined, SimMode::ComputeOnly,
                         SimMode::TrafficOnly}) {
        SimStats s = simulate(prog, cfg, mode);
        EXPECT_EQ(s.instructions, prog.instrs.size());
        EXPECT_EQ(s.andOps + s.xorOps + s.notOps, s.instructions);
        EXPECT_EQ(s.andOps, prog.numAnd());
    }
}

} // namespace
} // namespace haac
