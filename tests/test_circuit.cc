/**
 * @file
 * Netlist and CircuitBuilder unit tests: canonical-form invariants,
 * gate semantics, constant folding, and plaintext evaluation.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/builder.h"
#include "circuit/netlist.h"

namespace haac {
namespace {

TEST(Netlist, EmptyIsValid)
{
    Netlist nl;
    EXPECT_EQ(nl.check(), "");
    EXPECT_EQ(nl.numWires(), 0u);
}

TEST(Netlist, CanonicalViolationDetected)
{
    Netlist nl;
    nl.numGarblerInputs = 1;
    nl.gates.push_back({GateOp::And, 0, 5}); // wire 5 undefined
    EXPECT_NE(nl.check(), "");
}

TEST(Netlist, OutputRangeChecked)
{
    Netlist nl;
    nl.numGarblerInputs = 2;
    nl.gates.push_back({GateOp::And, 0, 1});
    nl.outputs.push_back(99);
    EXPECT_NE(nl.check(), "");
}

TEST(Builder, SingleGateTruthTables)
{
    for (bool a : {false, true}) {
        for (bool b : {false, true}) {
            CircuitBuilder cb;
            Wire wa = cb.garblerInput();
            Wire wb = cb.evaluatorInput();
            cb.addOutput(cb.andGate(wa, wb));
            cb.addOutput(cb.xorGate(wa, wb));
            cb.addOutput(cb.orGate(wa, wb));
            cb.addOutput(cb.notGate(wa));
            cb.addOutput(cb.xnorGate(wa, wb));
            Netlist nl = cb.build();
            auto out = nl.evaluate({a}, {b});
            EXPECT_EQ(out[0], a && b);
            EXPECT_EQ(out[1], a != b);
            EXPECT_EQ(out[2], a || b);
            EXPECT_EQ(out[3], !a);
            EXPECT_EQ(out[4], a == b);
        }
    }
}

TEST(Builder, RefusesInputsOutOfOrder)
{
    // A garbler input after an evaluator input would reuse that
    // evaluator input's wire id; every build refuses it.
    CircuitBuilder late_garbler;
    late_garbler.garblerInputs(2);
    const Wire e = late_garbler.evaluatorInput();
    EXPECT_THROW(late_garbler.garblerInput(), std::logic_error);
    EXPECT_EQ(late_garbler.evaluatorInput(), e + 1);

    CircuitBuilder late_input;
    const Wire a = late_input.garblerInput();
    const Wire b = late_input.evaluatorInput();
    late_input.addOutput(late_input.andGate(a, b));
    EXPECT_THROW(late_input.garblerInput(), std::logic_error);
    EXPECT_THROW(late_input.evaluatorInput(), std::logic_error);
}

TEST(Builder, MuxTruthTable)
{
    for (int sel = 0; sel < 2; ++sel) {
        for (int t = 0; t < 2; ++t) {
            for (int f = 0; f < 2; ++f) {
                CircuitBuilder cb;
                Wire s = cb.garblerInput();
                Wire wt = cb.evaluatorInput();
                Wire wf = cb.evaluatorInput();
                cb.addOutput(cb.mux(s, wt, wf));
                Netlist nl = cb.build();
                auto out = nl.evaluate({sel != 0}, {t != 0, f != 0});
                EXPECT_EQ(out[0], sel ? t != 0 : f != 0);
            }
        }
    }
}

TEST(Builder, ConstantFoldingElidesGates)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire zero = cb.constant(false);
    Wire one = cb.constant(true);
    const uint32_t before = cb.numGates();
    // All of these must fold to existing wires.
    EXPECT_EQ(cb.andGate(a, zero), zero);
    EXPECT_EQ(cb.andGate(a, one), a);
    EXPECT_EQ(cb.xorGate(a, zero), a);
    EXPECT_EQ(cb.andGate(a, a), a);
    EXPECT_EQ(cb.numGates(), before);
}

TEST(Builder, XorSelfIsZero)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire z = cb.xorGate(a, a);
    cb.addOutput(z);
    Netlist nl = cb.build();
    EXPECT_FALSE(nl.evaluate({true}, {})[0]);
    EXPECT_FALSE(nl.evaluate({false}, {})[0]);
}

TEST(Builder, NoFoldModeEmitsEverything)
{
    CircuitBuilder cb(/*fold_constants=*/false);
    Wire a = cb.garblerInput();
    Wire one = cb.constant(true);
    const uint32_t before = cb.numGates();
    cb.andGate(a, one);
    cb.xorGate(a, one);
    EXPECT_EQ(cb.numGates(), before + 2);
}

TEST(Builder, ConstOneIsLastInput)
{
    CircuitBuilder cb;
    cb.garblerInputs(3);
    cb.evaluatorInputs(2);
    Wire n = cb.notGate(1);
    cb.addOutput(n);
    Netlist nl = cb.build();
    EXPECT_EQ(nl.constOne, 5u);
    EXPECT_EQ(nl.numInputs(), 6u);
    EXPECT_EQ(nl.check(), "");
}

TEST(Builder, ConstantsAreStable)
{
    CircuitBuilder cb;
    cb.garblerInput();
    Wire z1 = cb.constant(false);
    Wire z2 = cb.constant(false);
    Wire o1 = cb.constant(true);
    Wire o2 = cb.constant(true);
    EXPECT_EQ(z1, z2);
    EXPECT_EQ(o1, o2);
}

TEST(Builder, EvaluateAllWiresTracksGates)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire x = cb.xorGate(a, b);
    Wire y = cb.andGate(x, a);
    cb.addOutput(y);
    Netlist nl = cb.build();
    auto all = nl.evaluateAllWires({true}, {false});
    EXPECT_EQ(all.size(), nl.numWires());
    EXPECT_TRUE(all[x]);
    EXPECT_TRUE(all[y]);
}

TEST(Builder, AndPercentMatchesMix)
{
    CircuitBuilder cb;
    Wire a = cb.garblerInput();
    Wire b = cb.evaluatorInput();
    Wire x = cb.andGate(a, b);
    Wire y = cb.xorGate(a, b);
    Wire z = cb.andGate(x, y);
    cb.addOutput(z);
    Netlist nl = cb.build();
    EXPECT_EQ(nl.numAndGates(), 2u);
    EXPECT_NEAR(nl.andPercent(), 100.0 * 2 / 3, 1e-9);
}

TEST(BitsHelpers, U64RoundTrip)
{
    const uint64_t v = 0xdeadbeefcafebabeull;
    auto bits = u64ToBits(v, 64);
    EXPECT_EQ(bitsToU64(bits), v);
    auto low = u64ToBits(v, 16);
    EXPECT_EQ(bitsToU64(low), v & 0xffff);
}

TEST(BitsHelpers, ConstantBitsEvaluate)
{
    CircuitBuilder cb;
    cb.garblerInput();
    Bits c = constantBits(cb, 8, 0xa5);
    cb.addOutputs(c);
    Netlist nl = cb.build();
    auto out = nl.evaluate({false}, {});
    EXPECT_EQ(bitsToU64(out), 0xa5u);
}

} // namespace
} // namespace haac
