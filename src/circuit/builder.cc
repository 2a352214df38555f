#include "circuit/builder.h"

#include <stdexcept>

namespace haac {

Wire
CircuitBuilder::garblerInput()
{
    if (frozen_)
        throw std::logic_error("declare all inputs before emitting gates");
    // A later garbler input would take a wire id that an evaluator
    // input already holds.
    if (netlist_.numEvaluatorInputs != 0)
        throw std::logic_error(
            "garbler inputs must precede evaluator inputs");
    known_.emplace_back(std::nullopt);
    return netlist_.numGarblerInputs++;
}

Wire
CircuitBuilder::evaluatorInput()
{
    if (frozen_)
        throw std::logic_error("declare all inputs before emitting gates");
    known_.emplace_back(std::nullopt);
    return netlist_.numGarblerInputs + netlist_.numEvaluatorInputs++;
}

Bits
CircuitBuilder::garblerInputs(uint32_t n)
{
    Bits bits(n);
    for (uint32_t i = 0; i < n; ++i)
        bits[i] = garblerInput();
    return bits;
}

Bits
CircuitBuilder::evaluatorInputs(uint32_t n)
{
    Bits bits(n);
    for (uint32_t i = 0; i < n; ++i)
        bits[i] = evaluatorInput();
    return bits;
}

void
CircuitBuilder::freezeInputs()
{
    if (frozen_)
        return;
    // Materialize the constant-one wire as the last input. Every
    // netlist gets one; NOT and constants lower onto it.
    netlist_.constOne = netlist_.numGarblerInputs +
                        netlist_.numEvaluatorInputs;
    known_.emplace_back(true);
    frozen_ = true;
}

Wire
CircuitBuilder::constant(bool v)
{
    freezeInputs();
    if (v)
        return netlist_.constOne;
    if (!zeroWire_) {
        // 1 XOR 1 == 0; a single throwaway gate caches the zero wire.
        Wire one = netlist_.constOne;
        Wire z = netlist_.numInputs() + netlist_.numGates();
        netlist_.gates.push_back({GateOp::Xor, one, one});
        known_.emplace_back(false);
        zeroWire_ = z;
    }
    return *zeroWire_;
}

std::optional<bool>
CircuitBuilder::knownValue(Wire w) const
{
    return w < known_.size() ? known_[w] : std::nullopt;
}

Wire
CircuitBuilder::emit(GateOp op, Wire a, Wire b)
{
    freezeInputs();
    Wire out = netlist_.numInputs() + netlist_.numGates();
    netlist_.gates.push_back({op, a, b});
    std::optional<bool> ka = knownValue(a), kb = knownValue(b);
    if (ka && kb) {
        known_.emplace_back(op == GateOp::And ? (*ka && *kb)
                                              : (*ka != *kb));
    } else {
        known_.emplace_back(std::nullopt);
    }
    return out;
}

Wire
CircuitBuilder::andGate(Wire a, Wire b)
{
    if (foldConstants_) {
        std::optional<bool> ka = knownValue(a), kb = knownValue(b);
        if (ka)
            return *ka ? b : constant(false);
        if (kb)
            return *kb ? a : constant(false);
        if (a == b)
            return a;
    }
    return emit(GateOp::And, a, b);
}

Wire
CircuitBuilder::xorGate(Wire a, Wire b)
{
    if (foldConstants_) {
        std::optional<bool> ka = knownValue(a), kb = knownValue(b);
        if (ka && !*ka)
            return b;
        if (kb && !*kb)
            return a;
        if (a == b)
            return constant(false);
        if (ka && kb)
            return constant(*ka != *kb);
    }
    return emit(GateOp::Xor, a, b);
}

Wire
CircuitBuilder::notGate(Wire a)
{
    freezeInputs();
    return xorGate(a, netlist_.constOne);
}

Wire
CircuitBuilder::orGate(Wire a, Wire b)
{
    // a | b == (a ^ b) ^ (a & b): one AND, same cost as DeMorgan but
    // shallower.
    return xorGate(xorGate(a, b), andGate(a, b));
}

Wire
CircuitBuilder::mux(Wire s, Wire t, Wire f)
{
    // f ^ (s & (t ^ f)).
    return xorGate(f, andGate(s, xorGate(t, f)));
}

void
CircuitBuilder::addOutput(Wire w)
{
    netlist_.outputs.push_back(w);
}

void
CircuitBuilder::addOutputs(const Bits &bits)
{
    for (Wire w : bits)
        addOutput(w);
}

Netlist
CircuitBuilder::build()
{
    freezeInputs();
    assert(netlist_.check().empty());
    Netlist out = std::move(netlist_);
    out.recordAndGates();
    netlist_ = Netlist();
    known_.clear();
    zeroWire_.reset();
    frozen_ = false;
    return out;
}

Bits
constantBits(CircuitBuilder &cb, uint32_t width, uint64_t value)
{
    Bits bits(width);
    for (uint32_t i = 0; i < width; ++i)
        bits[i] = cb.constant(((value >> i) & 1) != 0);
    return bits;
}

uint64_t
bitsToU64(const std::vector<bool> &bits)
{
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size() && i < 64; ++i)
        v |= uint64_t(bits[i] ? 1 : 0) << i;
    return v;
}

std::vector<bool>
u64ToBits(uint64_t value, uint32_t width)
{
    std::vector<bool> bits(width);
    for (uint32_t i = 0; i < width; ++i)
        bits[i] = ((value >> i) & 1) != 0;
    return bits;
}

} // namespace haac
