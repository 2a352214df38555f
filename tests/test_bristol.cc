/**
 * @file
 * Bristol reader/writer tests: parsing, INV/EQW lowering,
 * canonicalization, round-trips, and error handling.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/bristol.h"
#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "net/server.h"
#include "workloads/vip.h"

namespace haac {
namespace {

/** FNV-1a over a 64-bit word's bytes, little-endian. */
void
fnvMix(uint64_t &digest, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
    }
}

/** The input split, constant wire, gates and outputs, digested. */
uint64_t
netlistDigest(const Netlist &nl)
{
    uint64_t digest = 0xcbf29ce484222325ull;
    fnvMix(digest, nl.numGarblerInputs);
    fnvMix(digest, nl.numEvaluatorInputs);
    fnvMix(digest, nl.constOne);
    fnvMix(digest, nl.gates.size());
    for (const Gate &g : nl.gates)
        fnvMix(digest, uint64_t(g.op) << 62 ^ uint64_t(g.a) << 32 ^ g.b);
    fnvMix(digest, nl.outputs.size());
    for (WireId w : nl.outputs)
        fnvMix(digest, w);
    return digest;
}

/** The parse and the lint-attaching parse of @p text, digested. */
uint64_t
parseDigest(const std::string &text)
{
    CircuitLintReport rep;
    uint64_t digest = netlistDigest(readBristolString(text, &rep));
    EXPECT_EQ(netlistDigest(readBristolString(text)), digest);
    fnvMix(digest, rep.diags.size());
    for (const Diagnostic &d : rep.diags)
        for (char c : formatDiagnostic(d) + "\n")
            fnvMix(digest, uint8_t(c));
    fnvMix(digest, rep.cost.andGates);
    fnvMix(digest, rep.cost.multDepth);
    return digest;
}

/** Expect @p text to be refused with a message containing @p what. */
void
expectRefused(const std::string &text, const std::string &what)
{
    try {
        (void)readBristolString(text);
        ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(Bristol, ParseTinyAndCircuit)
{
    // 1 AND gate, 2 inputs (1+1), 1 output.
    const std::string text = "1 3\n1 1 1\n\n2 1 0 1 2 AND\n";
    Netlist nl = readBristolString(text);
    EXPECT_EQ(nl.numGarblerInputs, 1u);
    EXPECT_EQ(nl.numEvaluatorInputs, 1u);
    EXPECT_EQ(nl.numGates(), 1u);
    EXPECT_EQ(nl.check(), "");
    EXPECT_TRUE(nl.evaluate({true}, {true})[0]);
    EXPECT_FALSE(nl.evaluate({true}, {false})[0]);
}

TEST(Bristol, InvLowersToXorWithConstOne)
{
    const std::string text = "1 2\n1 0 1\n\n1 1 0 1 INV\n";
    Netlist nl = readBristolString(text);
    EXPECT_EQ(nl.numGates(), 1u);
    EXPECT_EQ(nl.gates[0].op, GateOp::Xor);
    EXPECT_NE(nl.constOne, kNoWire);
    EXPECT_TRUE(nl.evaluate({false}, {})[0]);
    EXPECT_FALSE(nl.evaluate({true}, {})[0]);
}

TEST(Bristol, EqwAliasesWire)
{
    const std::string good =
        "2 4\n1 1 1\n\n1 1 0 2 EQW\n2 1 2 1 3 XOR\n";
    Netlist nl = readBristolString(good);
    EXPECT_EQ(nl.numGates(), 1u); // EQW emits no gate
    EXPECT_TRUE(nl.evaluate({true}, {false})[0]);
    EXPECT_FALSE(nl.evaluate({true}, {true})[0]);
}

TEST(Bristol, RejectsMalformedInput)
{
    EXPECT_THROW(readBristolString(""), std::runtime_error);
    EXPECT_THROW(readBristolString("1 2\n1 0 1\n\n2 1 0 9 1 AND\n"),
                 std::runtime_error);
    EXPECT_THROW(readBristolString("1 3\n1 1 1\n\n2 1 0 1 2 NAND\n"),
                 std::runtime_error);
    EXPECT_THROW(readBristolString("1 3\n1 1 1\n\n3 1 0 1 2 2 AND\n"),
                 std::runtime_error);
}

TEST(Bristol, RejectsHostileHeaders)
{
    // More inputs than wires: the input-mapping loop would write past
    // the end of the wire map (heap corruption before any gate check).
    EXPECT_THROW(readBristolString("1 1\n5 5 1\n\n2 1 0 1 0 AND\n"),
                 std::runtime_error);
    // Inputs + outputs cannot fit the declared wire count.
    EXPECT_THROW(readBristolString("1 3\n2 1 1\n\n2 1 0 1 2 AND\n"),
                 std::runtime_error);
    // Wire inflation: nwires far beyond what inputs + gates can
    // define must fail before the wire map is allocated.
    EXPECT_THROW(readBristolString("1 2147483648\n1 1 1\n\n"
                                   "2 1 0 1 2 AND\n"),
                 std::runtime_error);
    // Counts that overflow the 32-bit wire-id space.
    EXPECT_THROW(
        readBristolString("0 4294967295\n4294967295 0 0\n\n"),
        std::runtime_error);
    EXPECT_THROW(
        readBristolString("1 18446744073709551615\n"
                          "9223372036854775807 9223372036854775807 "
                          "1\n\n2 1 0 1 2 AND\n"),
        std::runtime_error);
    // More outputs than wires (the tail-output loop would wrap).
    EXPECT_THROW(readBristolString("1 3\n1 1 7\n\n2 1 0 1 2 AND\n"),
                 std::runtime_error);
}

TEST(Bristol, WriteReadRoundTripPreservesSemantics)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(8);
    Bits b = cb.evaluatorInputs(8);
    cb.addOutputs(addBits(cb, a, b));
    cb.addOutput(ltUnsigned(cb, a, b));
    Netlist orig = cb.build();

    Netlist back = readBristolString(writeBristolString(orig));
    EXPECT_EQ(back.check(), "");
    EXPECT_EQ(back.numGates(), orig.numGates());

    // The writer exports const-one as a trailing evaluator input; feed
    // it explicitly on the re-read netlist.
    auto eval_back = [&back](const std::vector<bool> &ga,
                             std::vector<bool> eb) {
        eb.push_back(true); // the exported constant wire
        return back.evaluate(ga, eb);
    };
    for (uint64_t x : {0ull, 5ull, 200ull}) {
        for (uint64_t y : {0ull, 9ull, 255ull}) {
            auto want = orig.evaluate(u64ToBits(x, 8), u64ToBits(y, 8));
            auto got = eval_back(u64ToBits(x, 8), u64ToBits(y, 8));
            EXPECT_EQ(got, want) << x << "," << y;
        }
    }
}

TEST(Bristol, WriterEmitsTailOutputsViaEqw)
{
    // A circuit whose output is not the last wire forces EQW copies.
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire x = cb.andGate(a, b);
    cb.xorGate(a, b); // dead gate after the output
    cb.addOutput(x);
    Netlist orig = cb.build();

    const std::string text = writeBristolString(orig);
    EXPECT_NE(text.find("EQW"), std::string::npos);
    Netlist back = readBristolString(text);
    std::vector<bool> eb = {true, true}; // b + exported const wire
    EXPECT_TRUE(back.evaluate({true}, eb)[0]);
}

TEST(Bristol, TopologicalOrderRequired)
{
    // Gate reads wire 3 before it is defined.
    const std::string text =
        "2 4\n1 1 1\n\n2 1 0 3 2 AND\n2 1 0 1 3 XOR\n";
    EXPECT_THROW(readBristolString(text), std::runtime_error);
}

TEST(Bristol, RejectsInputsNoGateCanRead)
{
    // Every gate reads at most two wires, so inputs past twice the
    // gate count are unreadable; the header alone must not size the
    // wire map ("0 4000000000\n4000000000 0 0\n" would fill 16 GB).
    expectRefused("0 5000\n5000 0 0\n", "more inputs than");
    expectRefused("1 5\n2 2 1\n\n2 1 0 1 4 AND\n", "more inputs than");
    // Two inputs per gate is the most a gate can read.
    EXPECT_EQ(readBristolString("1 3\n1 1 1\n\n2 1 0 1 2 AND\n")
                  .numInputs(),
              3u);
}

TEST(Bristol, FleetParseGolden)
{
    // Digests of the netlist and the lint report the reader makes of
    // the writer's text, recorded on the istream-based reader.
    std::vector<std::pair<std::string, Netlist>> fleet;
    for (const std::string &name : vipNames())
        fleet.emplace_back(name, vipWorkload(name, false).netlist);
    for (const char *spec : {"Million:32", "Mult:8", "AES128"})
        fleet.emplace_back(spec, resolveWorkload(spec).netlist);
    // The upload shape: every input on the evaluator.
    Netlist upload = vipWorkload("DotProd", false).netlist;
    upload.numEvaluatorInputs += upload.numGarblerInputs;
    upload.numGarblerInputs = 0;
    fleet.emplace_back("DotProd-upload", upload);

    const std::vector<std::pair<std::string, uint64_t>> golden = {
        {"BubbSt", 0xfe52544cb13d0aebull},
        {"DotProd", 0x2431d0cc6383f286ull},
        {"Merse", 0x1cd3432d9fc25d08ull},
        {"Triangle", 0x32af360ad53f7cd5ull},
        {"Hamm", 0xd2ee3d3a866d9263ull},
        {"MatMult", 0x1e13ec25147b4d85ull},
        {"ReLU", 0xec6d258d7eef2d1eull},
        {"GradDesc", 0x48201fc39df98da4ull},
        {"Million:32", 0x52b1c97efc162686ull},
        {"Mult:8", 0x12eeecfe357681e7ull},
        {"AES128", 0xd6cf243c111075ffull},
        {"DotProd-upload", 0x3a9aa152e50d737eull},
    };
    ASSERT_EQ(fleet.size(), golden.size());
    for (size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet[i].first, golden[i].first);
        EXPECT_EQ(parseDigest(writeBristolString(fleet[i].second)),
                  golden[i].second)
            << fleet[i].first;
    }
}

TEST(Bristol, SeparatorsAndLineEndsParseLikeLf)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(4);
    Bits b = cb.evaluatorInputs(4);
    cb.addOutputs(addBits(cb, a, b));
    const std::string lf = writeBristolString(cb.build());
    const uint64_t want = netlistDigest(readBristolString(lf));

    std::string crlf, tabs;
    for (char c : lf) {
        crlf += c == '\n' ? "\r\n" : std::string(1, c);
        tabs += c == ' ' ? "\t" : c == '\n' ? "\n\t \v\f" : std::string(1, c);
    }
    EXPECT_EQ(netlistDigest(readBristolString(crlf)), want);
    EXPECT_EQ(netlistDigest(readBristolString(tabs)), want);
    EXPECT_EQ(parseDigest(crlf), parseDigest(lf));

    // The last gate line needs no newline; text after the declared
    // gates is not read.
    ASSERT_EQ(lf.back(), '\n');
    EXPECT_EQ(netlistDigest(readBristolString(lf.substr(0, lf.size() - 1))),
              want);
    EXPECT_EQ(netlistDigest(readBristolString(lf + "trailing words\n")),
              want);
}

TEST(Bristol, RejectsNumbersPastU64)
{
    expectRefused("18446744073709551616 3\n1 1 1\n\n2 1 0 1 2 AND\n",
                  "missing gate/wire header");
    expectRefused("1 3\n1 1 99999999999999999999\n\n2 1 0 1 2 AND\n",
                  "missing input/output header");
    expectRefused("1 3\n1 1 1\n\n2 1 0 18446744073709551616 2 AND\n",
                  "bad 2-input gate");
    // Within 64 bits but past the wire map: a canonicalization error.
    expectRefused("1 3\n1 1 1\n\n2 1 0 18446744073709551615 2 AND\n",
                  "wire index out of range");
}

TEST(Bristol, NulInsideAnOpIsAnUnknownOp)
{
    const char raw[] = "1 3\n1 1 1\n\n2 1 0 1 2 AN\0D\n";
    expectRefused(std::string(raw, sizeof(raw) - 1), "unknown gate op 'AN");
}

TEST(Bristol, RejectsEmptyAndBlankText)
{
    for (const char *text : {"", " ", "\n\n", " \t\r\n\v\f"})
        expectRefused(text, "missing gate/wire header");
    expectRefused("1 3\n \r\n", "missing input/output header");
    expectRefused("1 3\n1 1 1\n\t\n", "truncated gate list");
}

TEST(Bristol, RejectsTokensGluedToNumbers)
{
    // A number ends at whitespace or the end of the text: no sign, no
    // suffix, no op glued on.
    expectRefused("1 3\n1 1 1\n\n2 1 0 1 2AND\n", "bad 2-input gate");
    expectRefused("1 3\n+1 1 1\n\n2 1 0 1 2 AND\n",
                  "missing input/output header");
    expectRefused("1 3\n1 1 1\n\n2 1 0 -1 2 AND\n", "bad 2-input gate");
    expectRefused("1 3x\n1 1 1\n\n2 1 0 1 2 AND\n",
                  "missing gate/wire header");
}

} // namespace
} // namespace haac
