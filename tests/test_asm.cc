/**
 * @file
 * Assembler round-trip and error-path tests.
 *
 * The load-bearing property: the disassembler's full listing is the
 * canonical assembly form, and `parseAsm(toAsm(p)) == p` field-exact
 * for every valid program — compiled VIP workloads, every compiler
 * variant, generated fuzz programs, and the checked-in .haac corpus.
 * The error-path suite pins the parser's diagnostics: every malformed
 * input yields a line-numbered message, never a crash (the sanitize CI
 * job runs this binary under ASan/UBSan).
 */
#include <gtest/gtest.h>

#include <dirent.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler/passes.h"
#include "core/isa/asm.h"
#include "core/isa/conformance.h"
#include "core/isa/disasm.h"
#include "core/sim/engine.h"
#include "workloads/vip.h"

namespace haac {
namespace {

HaacProgram
compiledVip(const std::string &name, ReorderKind kind = ReorderKind::Full,
            bool esw = true)
{
    const Workload w = vipWorkload(name, /*paper_scale=*/false);
    CompileOptions opts;
    opts.reorder = kind;
    opts.esw = esw;
    return compileProgram(assemble(w.netlist), opts);
}

void
expectRoundTrip(const HaacProgram &prog, const std::string &what)
{
    const std::string text = toAsm(prog);
    const AsmResult r = parseAsm(text);
    ASSERT_TRUE(r.ok) << what << ": " << r.error;
    EXPECT_TRUE(r.prog == prog) << what << ": parse(toAsm()) changed "
                                   "the program";
    EXPECT_EQ(toAsm(r.prog), text)
        << what << ": listing is not normalization-stable";
    EXPECT_TRUE(r.geHints.empty())
        << what << ": listing without @ge grew hints";
}

std::vector<std::string>
asmCorpus()
{
    std::vector<std::string> files;
    DIR *dir = opendir(HAAC_ASM_DIR);
    if (dir == nullptr)
        return files;
    while (dirent *e = readdir(dir)) {
        const std::string name = e->d_name;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".haac") == 0)
            files.push_back(std::string(HAAC_ASM_DIR) + "/" + name);
    }
    closedir(dir);
    return files;
}

// --- Round-trip: parse(toAsm(p)) == p ------------------------------

TEST(RoundTrip, AllVipWorkloads)
{
    for (const std::string &name : vipNames()) {
        SCOPED_TRACE(name);
        expectRoundTrip(compiledVip(name), name);
    }
}

TEST(RoundTrip, EveryCompilerVariant)
{
    for (ReorderKind kind : {ReorderKind::Baseline, ReorderKind::Full,
                             ReorderKind::Segment}) {
        for (bool esw : {true, false}) {
            std::ostringstream what;
            what << "DotProd/" << reorderKindName(kind)
                 << (esw ? "+esw" : "-esw");
            expectRoundTrip(compiledVip("DotProd", kind, esw),
                            what.str());
        }
    }
}

TEST(RoundTrip, GeneratedPrograms)
{
    for (uint64_t seed = 0; seed < 100; ++seed) {
        const HaacConfig cfg = conformanceConfig(seed);
        const HaacProgram prog =
            generateProgram(seed, GenOptions{}, cfg.swwWires());
        expectRoundTrip(prog, "seed " + std::to_string(seed));
    }
}

TEST(RoundTrip, CheckedInCorpusIsNormalizationStable)
{
    const std::vector<std::string> files = asmCorpus();
    ASSERT_FALSE(files.empty())
        << "no .haac files under " << HAAC_ASM_DIR;
    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        const AsmResult first = parseAsmFile(path);
        ASSERT_TRUE(first.ok) << first.error;
        // Hand-written text is not canonical (labels, comments); its
        // *program* must survive a listing round trip all the same.
        expectRoundTrip(first.prog, path);
        EXPECT_FALSE(first.tests.empty())
            << path << ": corpus files must carry .test vectors";
    }
}

TEST(RoundTrip, GeAnnotationsSurviveListing)
{
    const HaacProgram prog = compiledVip("Hamm");
    HaacConfig cfg;
    cfg.numGes = 4;
    const StreamSet streams = recordSchedule(prog, cfg);

    std::ostringstream os;
    disassemble(prog, os, 0, &streams.geOf);
    const AsmResult r = parseAsm(os.str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.prog == prog);
    ASSERT_EQ(r.geHints.size(), prog.instrs.size());
    for (size_t i = 0; i < r.geHints.size(); ++i)
        ASSERT_EQ(r.geHints[i], streams.geOf[i]) << "instruction " << i;
}

// --- Grammar features ----------------------------------------------

TEST(Parse, LabelsAndAutoTweaks)
{
    const AsmResult r = parseAsm(".inputs 2 garbler=1 evaluator=1\n"
                                 "x: xor w1, w2\n"
                                 "a: AND x, w1\n"
                                 "And a, x\n"
                                 ".outputs a w5\n");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.prog.instrs.size(), 3u);
    EXPECT_EQ(r.prog.instrs[1].a, 3u); // label x => w3
    EXPECT_EQ(r.prog.instrs[1].tweak, 0u);
    EXPECT_EQ(r.prog.instrs[2].tweak, 1u); // running AND index
    EXPECT_EQ(r.prog.outputs, (std::vector<uint32_t>{4, 5}));
}

TEST(Parse, ExplicitAnnotationsAndIndices)
{
    const AsmResult r =
        parseAsm("; comment\n"
                 ".inputs 2 garbler=1 evaluator=1\n"
                 "0: AND w1, w2 -> w3 [live] (tweak 7) @ge2\n"
                 "1:\n" // a pending numeric label...
                 "NOT w3 @ge1\n" // ...binds to the next instruction
                 ".outputs w4\n");
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.prog.instrs.size(), 2u);
    EXPECT_TRUE(r.prog.instrs[0].live);
    EXPECT_EQ(r.prog.instrs[0].tweak, 7u);
    EXPECT_FALSE(r.prog.instrs[1].live);
    EXPECT_EQ(r.prog.instrs[1].a, 3u);
    EXPECT_EQ(r.prog.instrs[1].b, 3u); // canonical NOT form
    ASSERT_EQ(r.geHints, (std::vector<uint8_t>{2, 1}));
}

TEST(Parse, ConstOneDeclaration)
{
    const AsmResult r = parseAsm(".inputs 3 garbler=1 evaluator=1\n"
                                 ".const_one w3\n"
                                 "NOT w1\n"
                                 ".outputs w4\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.prog.constOneAddr, 3u);
    EXPECT_EQ(r.prog.numInputs, 3u);
}

// --- Error paths: line-numbered diagnostics, never a crash ---------

struct BadCase
{
    const char *name;
    const char *text;
    uint32_t line;
    const char *needle;
};

TEST(ParseErrors, EveryDiagnosticCarriesItsLine)
{
    const char *kPrelude = ".inputs 2 garbler=1 evaluator=1\n";
    const std::vector<BadCase> cases = {
        {"unknown opcode", ".inputs 2 garbler=1 evaluator=1\nFROB w1\n",
         2, "unknown opcode"},
        {"undefined operand wire",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w9\n", 2,
         "not defined at this point"},
        {"oorw sentinel by name",
         ".inputs 2 garbler=1 evaluator=1\nXOR oorw, w1\n", 2,
         "OoRW sentinel"},
        {"w0 operand", ".inputs 2 garbler=1 evaluator=1\nNOT w0\n", 2,
         "reserved OoRW sentinel"},
        {"wire index overflow",
         ".inputs 2 garbler=1 evaluator=1\nNOT w99999999999\n", 2,
         "out of range"},
        {"undefined label",
         ".inputs 2 garbler=1 evaluator=1\nXOR nope, w1\n", 2,
         "undefined label"},
        {"dangling label",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w2\norphan:\n"
         ".outputs w3\n",
         3, "dangling label"},
        {"duplicate label",
         ".inputs 2 garbler=1 evaluator=1\nx: NOT w1\nx: NOT w2\n"
         ".outputs w3\n",
         3, "duplicate label"},
        // EOF diagnostics point one past the last line.
        {"truncated file (no .outputs)",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w2\n", 4,
         "missing .outputs"},
        {"empty file", "", 2, "missing .inputs"},
        {"instruction before .inputs", "XOR w1, w2\n", 1,
         "must follow the .inputs"},
        {"inconsistent input split", ".inputs 5 garbler=3 evaluator=3\n",
         1, "exceed the total"},
        {"implied const-one left undeclared",
         ".inputs 3 garbler=1 evaluator=1\nNOT w1\n.outputs w4\n", 5,
         "constant-one"},
        {"const-one not the last input",
         ".inputs 3 garbler=1 evaluator=1\n.const_one w2\n", 2,
         "last input"},
        {"wrong operand count",
         ".inputs 2 garbler=1 evaluator=1\nAND w1\n", 2,
         "takes two operands"},
        {"arrow disagrees with implicit output",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w2 -> w5\n", 2,
         "disagrees with the implicit address"},
        {"tweak on a non-AND",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w2 (tweak 3)\n", 2,
         "only valid on AND"},
        {"trailing junk",
         ".inputs 2 garbler=1 evaluator=1\nNOT w1 garbage\n", 2,
         "trailing junk"},
        {"unknown directive", ".wat 3\n", 1, "unknown directive"},
        {"output never defined",
         ".inputs 2 garbler=1 evaluator=1\n.outputs w9\n", 2,
         "never defined"},
        {"test vector arity",
         ".inputs 2 garbler=1 evaluator=1\nXOR w1, w2\n.outputs w3\n"
         ".test garbler=11 evaluator=1 expect=1\n",
         4, ".test garbler= has 2 bits"},
    };
    (void)kPrelude;

    for (const BadCase &c : cases) {
        SCOPED_TRACE(c.name);
        const AsmResult r = parseAsm(c.text);
        EXPECT_FALSE(r.ok);
        EXPECT_EQ(r.errorLine, c.line) << r.error;
        EXPECT_NE(r.error.find(c.needle), std::string::npos)
            << "diagnostic was: " << r.error;
        EXPECT_NE(r.error.find("line " + std::to_string(c.line)),
                  std::string::npos)
            << "diagnostic was: " << r.error;
    }
}

TEST(ParseErrors, UnreadableFile)
{
    const AsmResult r = parseAsmFile("/nonexistent/no-such.haac");
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorLine, 0u);
    EXPECT_NE(r.error.find("no-such.haac"), std::string::npos);
}

// --- Disassembler coverage for every opcode the parser accepts -----

TEST(Disasm, EveryOpcodeRoundTrips)
{
    HaacProgram prog;
    prog.numInputs = 3;
    prog.numGarblerInputs = 1;
    prog.numEvaluatorInputs = 1;
    prog.constOneAddr = 3;
    HaacInstruction i0; // AND
    i0.op = HaacOp::And, i0.a = 1, i0.b = 2, i0.live = true,
    i0.tweak = 0;
    HaacInstruction i1; // XOR
    i1.op = HaacOp::Xor, i1.a = 4, i1.b = 3, i1.live = false;
    HaacInstruction i2; // NOT (b == a canonically)
    i2.op = HaacOp::Not, i2.a = 5, i2.b = 5, i2.live = true;
    HaacInstruction i3; // NOP
    i3.op = HaacOp::Nop, i3.a = 2, i3.b = 2, i3.live = false;
    prog.instrs = {i0, i1, i2, i3};
    prog.outputs = {6};
    ASSERT_EQ(prog.check(), "");

    // The listing spells inputs symbolically (g0/e0/one); interior
    // wires keep the w<addr> form. Everything must still round-trip.
    const std::string text = toAsm(prog);
    for (const char *needle :
         {"AND g0, e0", "[live]", "(tweak 0)", "XOR w4, one", "NOT w5",
          "NOP e0", ".const_one w3", ".outputs w6"})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing '" << needle << "' in:\n"
            << text;
    // NOT/NOP must not spell their ignored b operand.
    EXPECT_EQ(text.find("NOT w5,"), std::string::npos);
    EXPECT_EQ(text.find("NOP e0,"), std::string::npos);

    const AsmResult r = parseAsm(text);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.prog == prog);
}

} // namespace
} // namespace haac
