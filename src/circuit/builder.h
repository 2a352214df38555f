/**
 * @file
 * Circuit-builder EDSL (the EMP-Toolkit-like frontend).
 *
 * Programs are written against this builder in ordinary C++; the result
 * is a canonical Netlist ready for garbling or HAAC compilation. The
 * builder performs the cheap structural optimizations a GC frontend is
 * expected to do: constant folding (so shift-by-constant, padding, etc.
 * cost nothing) and NOT-lowering onto the public constant-one wire.
 */
#ifndef HAAC_CIRCUIT_BUILDER_H
#define HAAC_CIRCUIT_BUILDER_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/netlist.h"

namespace haac {

/** Builder-level wire handle (same numbering as the final Netlist). */
using Wire = WireId;

/** A little-endian vector of wires (bit 0 first). */
using Bits = std::vector<Wire>;

class CircuitBuilder
{
  public:
    /**
     * @param fold_constants When true (default), gates with known-
     *        constant operands are folded away instead of emitted.
     */
    explicit CircuitBuilder(bool fold_constants = true)
        : foldConstants_(fold_constants)
    {}

    /**
     * @name Inputs
     * All garbler inputs, then all evaluator inputs, before the first
     * gate; any other order throws std::logic_error.
     */
    /// @{
    Wire garblerInput();
    Wire evaluatorInput();
    Bits garblerInputs(uint32_t n);
    Bits evaluatorInputs(uint32_t n);
    /// @}

    /** Public constant wire. */
    Wire constant(bool v);

    /** @name Gates */
    /// @{
    Wire andGate(Wire a, Wire b);
    Wire xorGate(Wire a, Wire b);
    Wire notGate(Wire a);
    Wire orGate(Wire a, Wire b);
    Wire xnorGate(Wire a, Wire b) { return notGate(xorGate(a, b)); }
    /** mux: s ? t : f (one AND, two XOR). */
    Wire mux(Wire s, Wire t, Wire f);
    /// @}

    /** Mark wires as primary outputs (call once, in order). */
    void addOutput(Wire w);
    void addOutputs(const Bits &bits);

    /** If the wire is known constant at build time, its value. */
    std::optional<bool> knownValue(Wire w) const;

    /** Number of gates emitted so far. */
    uint32_t numGates() const { return netlist_.numGates(); }

    /**
     * Finish building and take the netlist.
     *
     * The builder is left empty; check() is asserted in debug builds.
     */
    Netlist build();

  private:
    Wire emit(GateOp op, Wire a, Wire b);
    void freezeInputs();

    Netlist netlist_;
    bool foldConstants_;
    bool frozen_ = false;
    /** Constness lattice: unknown (nullopt) or known 0/1. */
    std::vector<std::optional<bool>> known_;
    std::optional<Wire> zeroWire_;
};

/** Build a Bits vector of constants encoding @p value (LSB first). */
Bits constantBits(CircuitBuilder &cb, uint32_t width, uint64_t value);

/** Pack a little-endian bool vector into a uint64. */
uint64_t bitsToU64(const std::vector<bool> &bits);

/** Unpack @p width low bits of @p value, LSB first. */
std::vector<bool> u64ToBits(uint64_t value, uint32_t width);

} // namespace haac

#endif // HAAC_CIRCUIT_BUILDER_H
