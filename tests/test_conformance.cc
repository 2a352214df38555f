/**
 * @file
 * Differential conformance: the timing simulator versus the functional
 * machine versus the plaintext oracle, over seeded random programs and
 * the checked-in .haac grader corpus.
 *
 * The fuzz sweep honors two environment variables so CI can run
 * distinct seeds per matrix leg without recompiling:
 *   HAAC_CONFORMANCE_SEED   (default 1337)
 *   HAAC_CONFORMANCE_COUNT  (default 1000)
 * Any mismatch is written to conformance_fail_<seed>.haac in the
 * working directory — a committable regression case (CI uploads these
 * as artifacts).
 */
#include <gtest/gtest.h>

#include <dirent.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/compiler/passes.h"
#include "core/isa/asm.h"
#include "core/isa/conformance.h"
#include "core/isa/disasm.h"
#include "core/sim/engine.h"
#include "core/sim/functional.h"
#include "crypto/prg.h"

namespace haac {
namespace {

uint64_t
envU64(const char *name, uint64_t dflt)
{
    const char *v = std::getenv(name);
    return v != nullptr && *v != '\0' ? strtoull(v, nullptr, 10)
                                      : dflt;
}

/** The fixed config the grader corpus is written against. */
HaacConfig
graderConfig()
{
    HaacConfig cfg;
    cfg.numGes = 2;
    cfg.swwBytes = 256 * kLabelBytes;
    cfg.banksPerGe = 2;
    cfg.queueSramBytes = 4096;
    return cfg;
}

// --- Generator properties ------------------------------------------

TEST(Generator, DeterministicInTheSeed)
{
    const GenOptions opts;
    for (uint64_t seed : {1ull, 42ull, 999ull}) {
        const HaacProgram a = generateProgram(seed, opts, 128);
        const HaacProgram b = generateProgram(seed, opts, 128);
        EXPECT_TRUE(a == b) << "seed " << seed;
    }
    EXPECT_FALSE(generateProgram(1, opts, 128) ==
                 generateProgram(2, opts, 128));
}

TEST(Generator, ProgramsAreWellFormed)
{
    const GenOptions opts;
    for (uint64_t seed = 0; seed < 50; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        const HaacProgram p =
            generateProgram(seed, opts, cfg.swwWires());
        ASSERT_EQ(p.check(), "") << "seed " << seed;
        ASSERT_FALSE(p.outputs.empty());
        for (size_t k = 0; k < p.instrs.size(); ++k) {
            const HaacInstruction &ins = p.instrs[k];
            const uint32_t out = p.outputAddrOf(k);
            ASSERT_GE(ins.a, 1u);
            ASSERT_LT(ins.a, out);
            ASSERT_LT(ins.b, out);
            if (ins.op == HaacOp::Not || ins.op == HaacOp::Nop)
                ASSERT_EQ(ins.b, ins.a) << "non-canonical NOT/NOP";
        }
    }
}

TEST(Generator, ConfigIsDeterministicAndAdversarial)
{
    for (uint64_t seed = 0; seed < 20; ++seed) {
        const HaacConfig a = conformanceConfig(seed);
        const HaacConfig b = conformanceConfig(seed);
        EXPECT_EQ(a.numGes, b.numGes);
        EXPECT_EQ(a.swwBytes, b.swwBytes);
        EXPECT_EQ(a.role, b.role);
        EXPECT_EQ(a.queueSramBytes, b.queueSramBytes);
        // Tiny windows are the point: they force constant sliding.
        EXPECT_LE(a.swwWires(), 256u);
        EXPECT_GE(a.swwWires(), 64u);
        EXPECT_LE(a.numGes, 4u);
    }
}

// --- The fuzz sweep ------------------------------------------------

TEST(Fuzz, TimingVsFunctionalVsOracle)
{
    const uint64_t seed = envU64("HAAC_CONFORMANCE_SEED", 1337);
    const uint32_t count =
        uint32_t(envU64("HAAC_CONFORMANCE_COUNT", 1000));

    const FuzzSummary sum = fuzzConformance(seed, count);
    EXPECT_EQ(sum.programs, count);

    for (const FuzzFailure &f : sum.failures) {
        const std::string path = "conformance_fail_" +
                                 std::to_string(f.programSeed) +
                                 ".haac";
        std::ofstream(path) << f.haacDump;
        ADD_FAILURE() << "seed " << f.programSeed << ": " << f.error
                      << " (dumped to " << path << ")";
    }
    EXPECT_TRUE(sum.failures.empty())
        << sum.failures.size() << " of " << count
        << " programs diverged (root seed " << seed << ")";

    // The sweep must actually exercise the window machinery: across
    // ~1000 programs at 64-256-wire windows, far operands guarantee
    // OoRW traffic. A sweep with zero pops is testing nothing.
    EXPECT_GT(sum.totalOorPops, 0u);
    EXPECT_GT(sum.totalInstructions, 10u * sum.programs);
}

TEST(Fuzz, DumpedFailureFormatIsParseable)
{
    // Force a "failure" dump by checking a program against wrong
    // expectations is awkward; instead validate the dump pipeline
    // directly: generate, dump through the same formatter (a passing
    // program dumps identically), and re-parse.
    const uint64_t seed = 7;
    const HaacConfig cfg = conformanceConfig(seed);
    const HaacProgram prog =
        generateProgram(seed, GenOptions{}, cfg.swwWires());
    const AsmResult r = parseAsm(toAsm(prog));
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.prog == prog);
}

TEST(Fuzz, InjectedOorwReorderIsCaught)
{
    // Swap two entries of one GE's OoRW pop stream: the functional
    // machine's pop-order verification must reject the run. This is
    // the canary for the whole differential harness — if corrupting
    // the schedule goes unnoticed, the harness can't catch real bugs.
    GenOptions opts;
    opts.farOperandPct = 60;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        const HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        StreamSet streams = recordSchedule(prog, cfg);

        GeStreams *victim = nullptr;
        for (GeStreams &gs : streams.ge) {
            // Need two *different* adjacent addresses to swap.
            for (size_t i = 0; i + 1 < gs.oorAddrs.size(); ++i) {
                if (gs.oorAddrs[i] != gs.oorAddrs[i + 1]) {
                    std::swap(gs.oorAddrs[i], gs.oorAddrs[i + 1]);
                    victim = &gs;
                    break;
                }
            }
            if (victim != nullptr)
                break;
        }
        if (victim == nullptr)
            continue; // this seed produced no swappable pops

        Prg in(splitmix64(seed));
        std::vector<bool> g(prog.numGarblerInputs);
        std::vector<bool> e(prog.numEvaluatorInputs);
        for (size_t j = 0; j < g.size(); ++j)
            g[j] = in.nextBit();
        for (size_t j = 0; j < e.size(); ++j)
            e[j] = in.nextBit();

        const FunctionalResult fr =
            runFunctional(prog, streams, cfg, g, e);
        ASSERT_FALSE(fr.ok)
            << "seed " << seed
            << ": corrupted OoRW pop order went unnoticed";
        return; // one demonstration is enough
    }
    FAIL() << "no seed in [0,200) produced a swappable OoRW stream";
}

TEST(Fuzz, InjectedLiveBitClearIsCaught)
{
    // Clearing the live bit of a wire that is later OoR-read means it
    // is never spilled; the functional machine must notice the missing
    // DRAM entry instead of fabricating a value.
    GenOptions opts;
    opts.farOperandPct = 60;
    for (uint64_t seed = 0; seed < 200; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        HaacProgram prog =
            generateProgram(seed, opts, cfg.swwWires());
        const StreamSet streams = recordSchedule(prog, cfg);

        // Find an OoR-popped address produced by an instruction.
        uint32_t victim = 0;
        for (const GeStreams &gs : streams.ge)
            for (uint32_t addr : gs.oorAddrs)
                if (addr > prog.numInputs) {
                    victim = addr;
                    break;
                }
        if (victim == 0)
            continue;

        prog.instrs[victim - prog.numInputs - 1].live = false;
        const FunctionalResult fr = runFunctional(
            prog, recordSchedule(prog, cfg), cfg,
            std::vector<bool>(prog.numGarblerInputs, true),
            std::vector<bool>(prog.numEvaluatorInputs, false));
        ASSERT_FALSE(fr.ok)
            << "seed " << seed
            << ": a dropped spill went unnoticed";
        return;
    }
    FAIL() << "no seed in [0,200) OoR-read an instruction output";
}

// --- The sharded sweep ---------------------------------------------

TEST(ShardFuzz, ShardedTimingVsOracleAtTwoAndFourWorkers)
{
    // The multi-core leg of the differential harness: every program
    // runs through the shard coordinator (real import/export timing
    // via runShardSimulation) and must reproduce the oracle outputs
    // wire-exact. Smaller count than the single-core sweep — each
    // program spawns M worker threads — but env-tunable the same way.
    const uint64_t seed = envU64("HAAC_CONFORMANCE_SEED", 1337);
    const uint32_t count =
        uint32_t(envU64("HAAC_SHARD_CONFORMANCE_COUNT", 60));

    for (uint32_t shards : {2u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        const ShardFuzzSummary sum =
            fuzzShardConformance(seed, count, shards);
        EXPECT_EQ(sum.programs, count);

        for (const FuzzFailure &f : sum.failures) {
            const std::string path =
                "shard_conformance_fail_" +
                std::to_string(f.programSeed) + "_m" +
                std::to_string(shards) + ".haac";
            std::ofstream(path) << f.haacDump;
            ADD_FAILURE()
                << "seed " << f.programSeed << ": " << f.error
                << " (dumped to " << path << ")";
        }
        EXPECT_TRUE(sum.failures.empty())
            << sum.failures.size() << " of " << count
            << " programs diverged at " << shards
            << " shards (root seed " << seed << ")";

        // The sweep must genuinely cross shard boundaries: a run
        // where no wire ever hopped would be M independent machines,
        // not the multi-core path.
        EXPECT_GT(sum.totalCrossWires, 0u);
    }
}

TEST(ShardFuzz, ReportsTelemetryAndRaisesGeCount)
{
    // One concrete program end to end: telemetry populated, the
    // 1-GE config raised to the shard count rather than silently
    // clamped, and the diff wire-exact.
    const uint64_t seed = 11;
    HaacConfig cfg = conformanceConfig(seed);
    cfg.numGes = 1; // force the raise path
    GenOptions opts;
    opts.minInstrs = 64;
    const HaacProgram prog =
        generateProgram(seed, opts, cfg.swwWires());

    Prg in(splitmix64(seed));
    std::vector<bool> g(prog.numGarblerInputs);
    std::vector<bool> e(prog.numEvaluatorInputs);
    for (size_t j = 0; j < g.size(); ++j)
        g[j] = in.nextBit();
    for (size_t j = 0; j < e.size(); ++j)
        e[j] = in.nextBit();

    const ShardConformanceResult r =
        checkShardConformance(prog, cfg, 2, g, e);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.shards, 2u);
    EXPECT_GE(r.rounds, 1u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.expected.size(), prog.outputs.size());
}

TEST(ShardFuzz, IllFormedProgramIsRefused)
{
    HaacProgram prog;
    prog.numGarblerInputs = 1;
    prog.numEvaluatorInputs = 1;
    prog.numInputs = 2;
    HaacInstruction ins;
    ins.op = HaacOp::And;
    ins.a = 5; // forward reference: fails check()
    ins.b = 1;
    prog.instrs.push_back(ins);
    prog.outputs.push_back(prog.outputAddrOf(0));

    const ShardConformanceResult r = checkShardConformance(
        prog, conformanceConfig(1), 2, {true}, {false});
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("check()"), std::string::npos) << r.error;
}

// --- Grader mode over the checked-in corpus ------------------------

TEST(Grader, CheckedInCorpusPasses)
{
    std::vector<std::string> files;
    DIR *dir = opendir(HAAC_ASM_DIR);
    ASSERT_NE(dir, nullptr) << "cannot open " << HAAC_ASM_DIR;
    while (dirent *e = readdir(dir)) {
        const std::string name = e->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".haac") == 0)
            files.push_back(std::string(HAAC_ASM_DIR) + "/" + name);
    }
    closedir(dir);
    ASSERT_FALSE(files.empty())
        << "no .haac corpus under " << HAAC_ASM_DIR;

    const HaacConfig cfg = graderConfig();
    uint32_t vectors = 0;
    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        const AsmCaseResult r = runAsmCase(path, cfg);
        EXPECT_TRUE(r.ok) << r.error;
        vectors += r.vectorsRun;
    }
    EXPECT_GE(files.size(), 5u);
    EXPECT_GE(vectors, 15u);
}

TEST(Grader, MissingExpectationsAreAnError)
{
    const char *path = "grader_no_tests.haac";
    std::ofstream(path) << ".inputs 2 garbler=1 evaluator=1\n"
                           "XOR w1, w2\n"
                           ".outputs w3\n";
    const AsmCaseResult r = runAsmCase(path, graderConfig());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("no .test vectors"), std::string::npos)
        << r.error;
    std::remove(path);
}

TEST(Grader, WrongExpectationIsReported)
{
    const char *path = "grader_wrong_expect.haac";
    std::ofstream(path) << ".inputs 2 garbler=1 evaluator=1\n"
                           "AND w1, w2 [live]\n"
                           ".outputs w3\n"
                           ".test garbler=1 evaluator=1 expect=0\n";
    const AsmCaseResult r = runAsmCase(path, graderConfig());
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 4"), std::string::npos) << r.error;
    std::remove(path);
}

} // namespace
} // namespace haac
