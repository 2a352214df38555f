/**
 * @file
 * Platform-layer tests: the area/power model reproduces Table 4 at the
 * paper's design point and scales sensibly; the energy model splits
 * activity plausibly; CPU calibration and report formatting work.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "platform/cpu_model.h"
#include "platform/energy_model.h"
#include "platform/host_cpu.h"
#include "platform/host_timer.h"
#include "platform/report.h"

namespace haac {
namespace {

TEST(AreaPower, Table4AnchorsReproduced)
{
    HaacConfig cfg; // paper default: 16 GEs, 2MB, 64 banks, 64KB
    AreaPowerBreakdown b = modelAreaPower(cfg);
    EXPECT_NEAR(b.halfGate.areaMm2, 2.15, 1e-6);
    EXPECT_NEAR(b.halfGate.powerMw, 1253.0, 1e-6);
    EXPECT_NEAR(b.sww.areaMm2, 1.94, 1e-6);
    EXPECT_NEAR(b.queues.areaMm2, 0.173, 1e-6);
    EXPECT_NEAR(b.total.areaMm2, 4.33, 0.01);
    EXPECT_NEAR(b.total.powerMw, 1502.0, 1.0);
    EXPECT_NEAR(b.hbm2Phy.areaMm2, 14.9, 1e-6);
    // §6.4: power density ~0.35 W/mm^2.
    EXPECT_NEAR(b.powerDensityWPerMm2(), 0.35, 0.01);
}

TEST(AreaPower, ScalesWithGeCountAndSww)
{
    HaacConfig small;
    small.numGes = 4;
    small.swwBytes = 1024 * 1024;
    AreaPowerBreakdown b = modelAreaPower(small);
    EXPECT_NEAR(b.halfGate.areaMm2, 2.15 / 4, 1e-6);
    EXPECT_NEAR(b.sww.areaMm2, 1.94 / 2, 1e-6);
    HaacConfig big;
    big.numGes = 32;
    EXPECT_NEAR(modelAreaPower(big).halfGate.areaMm2, 2.15 * 2, 1e-6);
}

TEST(Energy, HalfGateDominatesAndHeavyRuns)
{
    HaacConfig cfg;
    cfg.dram = DramKind::Hbm2; // as in Fig. 9's configuration
    SimStats stats;
    stats.cycles = 1000000;
    stats.instructions = 16000000; // fully busy 16 GEs
    stats.andOps = 12000000;
    stats.xorOps = 4000000;
    stats.swwReads = 2 * stats.instructions;
    stats.swwWrites = stats.instructions;
    stats.tableBytes = stats.andOps * 32;
    stats.instrBytes = stats.instructions * 5;
    EnergyBreakdown e = modelEnergy(cfg, stats);
    EXPECT_GT(e.halfGateJ, 0.4 * e.totalJ());
    EXPECT_GT(e.totalJ(), 0.0);
}

TEST(Energy, ZeroCyclesIsZeroEnergy)
{
    HaacConfig cfg;
    SimStats stats;
    EXPECT_EQ(modelEnergy(cfg, stats).totalJ(), 0.0);
}

TEST(Energy, CpuEnergyUsesPaperPower)
{
    EXPECT_NEAR(cpuEnergyJoules(2.0), 50.0, 1e-9);
}

TEST(CpuModel, CalibrationIsPositiveAndCached)
{
    const CpuBaseline &b1 = cpuBaseline();
    EXPECT_GT(b1.garbleGatesPerSecond, 1e3);
    EXPECT_GT(b1.evaluateGatesPerSecond, 1e3);
    const CpuBaseline &b2 = cpuBaseline();
    EXPECT_EQ(&b1, &b2);
    EXPECT_GT(b1.evaluateSeconds(1000000), 0.0);
}

TEST(CpuModel, PaperConstants)
{
    EXPECT_NEAR(paperCpuSeconds(3300000), 1.0, 1e-9);
    EXPECT_GT(kPaperCpuGarbleSlowdown, 1.0);
}

TEST(HostTimer, MeasuresSomething)
{
    volatile uint64_t x = 0;
    double t = timeKernel([&x] {
        for (int i = 0; i < 1000; ++i)
            x = x + uint64_t(i);
    }, 0.001);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 0.1);
}

TEST(HostCpu, FeaturesAreCompiledInAndMasksOnlyClear)
{
    const uint32_t host = cpu::features();
    EXPECT_EQ(host & ~cpu::kCompiled, 0u);
    {
        cpu::ScopedMask outer(cpu::kAesni | cpu::kVaes);
        EXPECT_EQ(cpu::features(), host & ~(cpu::kAesni | cpu::kVaes));
        EXPECT_FALSE(cpu::has(cpu::kAesni));
        {
            cpu::ScopedMask inner(cpu::kPclmul);
            EXPECT_EQ(cpu::features(),
                      host & ~(cpu::kAesni | cpu::kVaes | cpu::kPclmul));
        }
        EXPECT_EQ(cpu::features(), host & ~(cpu::kAesni | cpu::kVaes));
    }
    EXPECT_EQ(cpu::features(), host);
    EXPECT_EQ(cpu::has(cpu::kIfma), (host & cpu::kIfma) != 0);
}

TEST(Report, FormatsAlignedTable)
{
    Report r({"Bench", "Speedup"});
    r.addRow({"BubbSt", "123.45"});
    r.addRow({"ReLU", "9.1"});
    std::ostringstream os;
    r.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Bench"), std::string::npos);
    EXPECT_NE(out.find("BubbSt"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtKilo(12534000, 0), "12534");
    EXPECT_EQ(fmtSeconds(0.5), "500.000 ms");
    EXPECT_EQ(fmtSeconds(2.5e-6), "2.500 us");
    EXPECT_EQ(fmtBytes(2048), "2.00 KiB");
}

} // namespace
} // namespace haac
