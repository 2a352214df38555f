/**
 * @file
 * Functional-machine tests: the whole compiler stack (assemble,
 * reorder, rename, ESW, streams) preserves GC semantics through the
 * accelerator's memory system, for every reorder kind, SWW size, and
 * GE count — checked with real labels and the per-wire garbling
 * invariant.
 */
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "crypto/prg.h"

namespace haac {
namespace {

struct FuncParam
{
    ReorderKind reorder;
    uint32_t swwWires;
    uint32_t ges;
    bool esw;
};

std::string
paramName(const ::testing::TestParamInfo<FuncParam> &info)
{
    std::string s = reorderKindName(info.param.reorder);
    s += "_w" + std::to_string(info.param.swwWires);
    s += "_g" + std::to_string(info.param.ges);
    s += info.param.esw ? "_esw" : "_noesw";
    return s;
}

class FunctionalMachine : public ::testing::TestWithParam<FuncParam>
{
  protected:
    void
    runAndCheck(const Netlist &nl, const std::vector<bool> &ga,
                const std::vector<bool> &eb)
    {
        const FuncParam &p = GetParam();
        HaacConfig cfg;
        cfg.numGes = p.ges;
        cfg.swwBytes = size_t(p.swwWires) * kLabelBytes;

        CompileOptions opts;
        opts.reorder = p.reorder;
        opts.esw = p.esw;
        opts.swwWires = p.swwWires;

        HaacProgram prog = compileProgram(assemble(nl), opts);
        StreamSet set = recordSchedule(prog, cfg);
        FunctionalResult res = runFunctional(prog, set, cfg, ga, eb);
        ASSERT_TRUE(res.ok) << res.error;
        EXPECT_EQ(res.outputs, nl.evaluate(ga, eb));
    }
};

TEST_P(FunctionalMachine, RandomCircuits)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Prg prg(seed);
        CircuitBuilder cb;
        Bits pool;
        for (Wire w : cb.garblerInputs(8))
            pool.push_back(w);
        for (Wire w : cb.evaluatorInputs(8))
            pool.push_back(w);
        for (int i = 0; i < 1500; ++i) {
            Wire a = pool[prg.nextRange(pool.size())];
            Wire b = pool[prg.nextRange(pool.size())];
            switch (prg.nextRange(3)) {
              case 0:
                pool.push_back(cb.andGate(a, b));
                break;
              case 1:
                pool.push_back(cb.xorGate(a, b));
                break;
              default:
                pool.push_back(cb.notGate(a));
            }
        }
        for (int i = 0; i < 16; ++i)
            cb.addOutput(pool[pool.size() - 1 - i]);
        Netlist nl = cb.build();

        std::vector<bool> ga(8), eb(8);
        for (int i = 0; i < 8; ++i) {
            ga[i] = prg.nextBit();
            eb[i] = prg.nextBit();
        }
        runAndCheck(nl, ga, eb);
    }
}

TEST_P(FunctionalMachine, ArithmeticCircuit)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    Bits prod = mulBits(cb, a, b, 16);
    Bits sum = addBits(cb, prod, a);
    cb.addOutputs(sum);
    cb.addOutput(ltSigned(cb, sum, b));
    Netlist nl = cb.build();
    runAndCheck(nl, u64ToBits(0xbeef, 16), u64ToBits(0x1234, 16));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FunctionalMachine,
    ::testing::Values(
        FuncParam{ReorderKind::Baseline, 4096, 1, true},
        FuncParam{ReorderKind::Baseline, 128, 4, true},
        FuncParam{ReorderKind::Full, 4096, 4, true},
        FuncParam{ReorderKind::Full, 128, 4, true},
        FuncParam{ReorderKind::Full, 128, 16, false},
        FuncParam{ReorderKind::Segment, 128, 4, true},
        FuncParam{ReorderKind::Segment, 256, 8, true},
        FuncParam{ReorderKind::Full, 64, 2, true}),
    paramName);

TEST(FunctionalMachineEdge, TinySwwStillCorrect)
{
    // SWW of 32 wires against a 16-bit adder: heavy OoR pressure.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(16);
    Bits b = cb.evaluatorInputs(16);
    cb.addOutputs(addBits(cb, a, b));
    Netlist nl = cb.build();

    HaacConfig cfg;
    cfg.numGes = 2;
    cfg.swwBytes = 64 * kLabelBytes;

    CompileOptions opts;
    opts.reorder = ReorderKind::Full;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(nl), opts);
    StreamSet set = recordSchedule(prog, cfg);
    FunctionalResult res = runFunctional(
        prog, set, cfg, u64ToBits(40000, 16), u64ToBits(30000, 16));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(bitsToU64(res.outputs), (40000 + 30000) & 0xffff);
    EXPECT_GT(res.oorPops, 0u);
}

TEST(FunctionalMachineEdge, InputsBeyondSwwAreStreamed)
{
    // More primary inputs than SWW slots: the tail is resident, the
    // head arrives through the OoRW queue.
    const uint32_t n = 96;
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(n);
    Bits b = cb.evaluatorInputs(n);
    Bits x = xorBits(cb, a, b);
    cb.addOutputs(popcount(cb, x));
    Netlist nl = cb.build();

    HaacConfig cfg;
    cfg.numGes = 2;
    cfg.swwBytes = 64 * kLabelBytes; // 64 slots < 193 inputs

    CompileOptions opts;
    opts.reorder = ReorderKind::Baseline;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(nl), opts);
    StreamSet set = recordSchedule(prog, cfg);

    Prg prg(88);
    std::vector<bool> ga(n), eb(n);
    uint64_t expect = 0;
    for (uint32_t i = 0; i < n; ++i) {
        ga[i] = prg.nextBit();
        eb[i] = prg.nextBit();
        expect += ga[i] != eb[i] ? 1 : 0;
    }
    FunctionalResult res = runFunctional(prog, set, cfg, ga, eb);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(bitsToU64(res.outputs), expect);
}

TEST(FunctionalMachineEdge, LiveSpillCountMatchesEsw)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    Bits acc = a;
    for (int i = 0; i < 50; ++i)
        acc = addBits(cb, acc, b);
    cb.addOutputs(acc);
    Netlist nl = cb.build();

    HaacConfig cfg;
    cfg.numGes = 2;
    cfg.swwBytes = 64 * kLabelBytes;
    CompileOptions opts;
    opts.swwWires = cfg.swwWires();
    CompileStats stats;
    HaacProgram prog = compileProgram(assemble(nl), opts, &stats);
    StreamSet set = recordSchedule(prog, cfg);
    FunctionalResult res =
        runFunctional(prog, set, cfg, u64ToBits(3, 8), u64ToBits(5, 8));
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.liveSpills, stats.liveWires);
    EXPECT_EQ(res.oorPops, stats.oorReads);
}

} // namespace
} // namespace haac
