/**
 * @file
 * Queue-stream generation tests: GE mapping is a partition in program
 * order, OoR streams match the window rule, and zero-address rewrites
 * agree with the master program.
 */
#include <gtest/gtest.h>

#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "crypto/prg.h"

namespace haac {
namespace {

HaacProgram
randomProgram(uint64_t seed, uint32_t gates)
{
    Prg prg(seed);
    CircuitBuilder cb;
    Bits pool;
    for (Wire w : cb.garblerInputs(8))
        pool.push_back(w);
    for (Wire w : cb.evaluatorInputs(8))
        pool.push_back(w);
    for (uint32_t i = 0; i < gates; ++i) {
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
    cb.addOutput(pool.back());
    return assemble(cb.build());
}

HaacConfig
tinyConfig()
{
    HaacConfig cfg;
    cfg.numGes = 4;
    cfg.swwBytes = 256 * 16; // 256 wires
    return cfg;
}

TEST(Streams, PartitionInProgramOrder)
{
    HaacProgram prog = randomProgram(1, 800);
    HaacConfig cfg = tinyConfig();
    applyEsw(prog, cfg.swwWires());
    StreamSet set = recordSchedule(prog, cfg);

    // Every instruction appears exactly once across GEs.
    std::vector<int> seen(prog.instrs.size(), 0);
    for (const GeStreams &ge : set.ge) {
        for (size_t i = 0; i < ge.instrIdx.size(); ++i) {
            ++seen[ge.instrIdx[i]];
            if (i > 0) {
                EXPECT_LT(ge.instrIdx[i - 1], ge.instrIdx[i])
                    << "per-GE order must respect program order";
            }
        }
    }
    for (int s : seen)
        EXPECT_EQ(s, 1);

    // Issue order is a permutation that respects program order
    // monotonically (global in-order dispatch).
    ASSERT_EQ(set.issueOrder.size(), prog.instrs.size());
    for (size_t i = 1; i < set.issueOrder.size(); ++i)
        EXPECT_EQ(set.issueOrder[i], set.issueOrder[i - 1] + 1);
}

TEST(Streams, GeOfMatchesLists)
{
    HaacProgram prog = randomProgram(2, 500);
    HaacConfig cfg = tinyConfig();
    StreamSet set = recordSchedule(prog, cfg);
    for (uint32_t g = 0; g < cfg.numGes; ++g)
        for (uint32_t idx : set.ge[g].instrIdx)
            EXPECT_EQ(set.geOf[idx], g);
}

TEST(Streams, OorRewriteMatchesWindowRule)
{
    HaacProgram prog = randomProgram(3, 2000);
    HaacConfig cfg = tinyConfig();
    applyEsw(prog, cfg.swwWires());
    StreamSet set = recordSchedule(prog, cfg);

    uint64_t total_oor = 0;
    for (const GeStreams &ge : set.ge) {
        size_t oor_i = 0;
        for (size_t i = 0; i < ge.instrs.size(); ++i) {
            const HaacInstruction &local = ge.instrs[i];
            const HaacInstruction &master =
                prog.instrs[ge.instrIdx[i]];
            const uint32_t base = windowBase(
                prog.outputAddrOf(ge.instrIdx[i]), cfg.swwWires());
            // a operand.
            if (master.a < base) {
                EXPECT_EQ(local.a, kOorAddr);
                ASSERT_LT(oor_i, ge.oorAddrs.size());
                EXPECT_EQ(ge.oorAddrs[oor_i++], master.a);
            } else {
                EXPECT_EQ(local.a, master.a);
            }
            if (master.op != HaacOp::Not) {
                if (master.b < base) {
                    EXPECT_EQ(local.b, kOorAddr);
                    ASSERT_LT(oor_i, ge.oorAddrs.size());
                    EXPECT_EQ(ge.oorAddrs[oor_i++], master.b);
                } else {
                    EXPECT_EQ(local.b, master.b);
                }
            }
        }
        EXPECT_EQ(oor_i, ge.oorAddrs.size());
        total_oor += ge.oorAddrs.size();
    }
    EXPECT_EQ(total_oor, set.totalOor);
    EXPECT_EQ(total_oor, countOorReads(prog, cfg.swwWires()));
}

TEST(Streams, TableCountsMatchAndMix)
{
    HaacProgram prog = randomProgram(4, 600);
    HaacConfig cfg = tinyConfig();
    StreamSet set = recordSchedule(prog, cfg);
    uint64_t tables = 0;
    for (const GeStreams &ge : set.ge)
        tables += ge.tableCount;
    EXPECT_EQ(tables, prog.numAnd());
}

TEST(Streams, SingleGeGetsEverything)
{
    HaacProgram prog = randomProgram(5, 300);
    HaacConfig cfg = tinyConfig();
    cfg.numGes = 1;
    StreamSet set = recordSchedule(prog, cfg);
    EXPECT_EQ(set.ge[0].instrIdx.size(), prog.instrs.size());
}

TEST(Streams, LoadBalanceOnWideProgram)
{
    // 512 independent ANDs over 4 GEs: no GE should be starved.
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(512);
    Bits b = cb.evaluatorInputs(512);
    for (uint32_t i = 0; i < 512; ++i)
        cb.addOutput(cb.andGate(a[i], b[i]));
    HaacProgram prog = assemble(cb.build());

    HaacConfig cfg = tinyConfig();
    cfg.swwBytes = size_t(4096) * 16;
    StreamSet set = recordSchedule(prog, cfg);
    for (const GeStreams &ge : set.ge) {
        EXPECT_GT(ge.instrIdx.size(), 512u / cfg.numGes / 2);
        EXPECT_LT(ge.instrIdx.size(), 512u / cfg.numGes * 2);
    }
}

} // namespace
} // namespace haac
