/**
 * @file
 * Cross-stack integration tests: real workloads through the full
 * pipeline (netlist -> protocol -> assembler -> compiler -> functional
 * machine -> cycle model), checking both correctness and the paper's
 * headline behaviors (reordering helps, ESW cuts traffic, HAAC beats
 * the modeled CPU).
 */
#include <gtest/gtest.h>

#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "gc/protocol.h"
#include "platform/cpu_model.h"
#include "workloads/priorwork.h"
#include "workloads/vip.h"

namespace haac {
namespace {

/** A small config so integration tests stay fast. */
HaacConfig
smallConfig()
{
    HaacConfig cfg;
    cfg.numGes = 8;
    cfg.swwBytes = size_t(8192) * kLabelBytes;
    return cfg;
}

TEST(Integration, WorkloadsRunSecurelyEndToEnd)
{
    // Protocol-level (software GC) equivalence for real workloads.
    for (const char *name : {"DotProd", "Hamm", "ReLU"}) {
        Workload wl = vipWorkload(name, false);
        RemoteResult res =
            runProtocol(wl.netlist, wl.garblerBits, wl.evaluatorBits);
        EXPECT_EQ(res.outputs, wl.expectedOutputs) << name;
    }
}

TEST(Integration, MillionaireSecureEndToEnd)
{
    Workload wl = makeMillionaire(16);
    RemoteResult res =
        runProtocol(wl.netlist, wl.garblerBits, wl.evaluatorBits);
    EXPECT_EQ(res.outputs, wl.expectedOutputs);
}

TEST(Integration, CompiledWorkloadsStayCorrectOnHaac)
{
    HaacConfig cfg = smallConfig();
    for (const char *name : {"DotProd", "ReLU", "Triangle"}) {
        Workload wl = vipWorkload(name, false);
        for (ReorderKind kind : {ReorderKind::Baseline,
                                 ReorderKind::Full,
                                 ReorderKind::Segment}) {
            CompileOptions opts;
            opts.reorder = kind;
            opts.swwWires = cfg.swwWires();
            HaacProgram prog =
                compileProgram(assemble(wl.netlist), opts);
            StreamSet set = buildStreams(prog, cfg);
            FunctionalResult res =
                runFunctional(prog, set, cfg, wl.garblerBits,
                              wl.evaluatorBits);
            ASSERT_TRUE(res.ok)
                << name << "/" << reorderKindName(kind) << ": "
                << res.error;
            EXPECT_EQ(res.outputs, wl.expectedOutputs)
                << name << "/" << reorderKindName(kind);
        }
    }
}

TEST(Integration, ReorderingImprovesDeepWorkloads)
{
    // BubbSt-like dependence chains benefit from level scheduling.
    Workload wl = makeBubbleSort(16, 16);
    HaacConfig cfg = smallConfig();
    HaacProgram base = assemble(wl.netlist);

    CompileOptions baseline;
    baseline.reorder = ReorderKind::Baseline;
    baseline.swwWires = cfg.swwWires();
    CompileOptions full = baseline;
    full.reorder = ReorderKind::Full;

    SimStats s_base =
        simulate(compileProgram(base, baseline), cfg,
                 SimMode::ComputeOnly);
    SimStats s_full = simulate(compileProgram(base, full), cfg,
                               SimMode::ComputeOnly);
    EXPECT_LT(s_full.cycles, s_base.cycles);
}

TEST(Integration, EswCutsWireTraffic)
{
    Workload wl = makeDotProduct(16, 32);
    HaacConfig cfg = smallConfig();
    cfg.swwBytes = size_t(512) * kLabelBytes; // force window pressure

    CompileOptions with;
    with.reorder = ReorderKind::Full;
    with.swwWires = cfg.swwWires();
    CompileOptions without = with;
    without.esw = false;

    HaacProgram base = assemble(wl.netlist);
    SimStats s_with = simulate(compileProgram(base, with), cfg,
                               SimMode::Combined);
    SimStats s_without = simulate(compileProgram(base, without), cfg,
                                  SimMode::Combined);
    EXPECT_LT(s_with.liveWriteBytes, s_without.liveWriteBytes);
}

TEST(Integration, HaacBeatsModeledCpuOnEveryWorkload)
{
    HaacConfig cfg; // full 16-GE, 2MB configuration
    for (const char *name : {"DotProd", "ReLU"}) {
        Workload wl = vipWorkload(name, false);
        CompileOptions opts;
        opts.swwWires = cfg.swwWires();
        HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
        SimStats s = simulate(prog, cfg, SimMode::Combined);
        const double haac_seconds = s.seconds();
        const double cpu_seconds =
            paperCpuSeconds(wl.netlist.numGates());
        EXPECT_GT(cpu_seconds / haac_seconds, 10.0) << name;
    }
}

TEST(Integration, GarblerAndEvaluatorAgreeOnWork)
{
    Workload wl = makeDotProduct(8, 16);
    HaacConfig ev = smallConfig();
    HaacConfig gb = ev;
    gb.role = Role::Garbler;
    CompileOptions opts;
    opts.swwWires = ev.swwWires();
    HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
    SimStats se = simulate(prog, ev, SimMode::Combined);
    SimStats sg = simulate(prog, gb, SimMode::Combined);
    EXPECT_EQ(se.instructions, sg.instructions);
    // Both roles move the same table bytes (in opposite directions).
    EXPECT_EQ(se.tableBytes, sg.tableBytes);
    // Pipeline depth difference keeps them within a few percent.
    EXPECT_LT(double(sg.cycles) / double(se.cycles), 1.3);
}

TEST(Integration, Aes128CompilesAndRunsOnHaac)
{
    Workload wl = makeAes128();
    HaacConfig cfg = smallConfig();
    CompileOptions opts;
    opts.reorder = ReorderKind::Full;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
    StreamSet set = buildStreams(prog, cfg);
    FunctionalResult res = runFunctional(prog, set, cfg,
                                         wl.garblerBits,
                                         wl.evaluatorBits);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.outputs, wl.expectedOutputs);

    SimStats s = runSimulation(prog, cfg, set, SimMode::Combined);
    EXPECT_GT(s.cycles, 0u);
    EXPECT_EQ(s.instructions, prog.instrs.size());
}

TEST(Integration, GradDescOnHaacMatchesSoftFloat)
{
    Workload wl = makeGradDesc(2, 2);
    HaacConfig cfg = smallConfig();
    CompileOptions opts;
    opts.reorder = ReorderKind::Segment;
    opts.swwWires = cfg.swwWires();
    HaacProgram prog = compileProgram(assemble(wl.netlist), opts);
    StreamSet set = buildStreams(prog, cfg);
    FunctionalResult res = runFunctional(prog, set, cfg,
                                         wl.garblerBits,
                                         wl.evaluatorBits);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.outputs, wl.expectedOutputs);
}

} // namespace
} // namespace haac
