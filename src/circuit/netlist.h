/**
 * @file
 * Boolean netlist IR: the contract between the circuit frontend, the GC
 * protocol engines, and the HAAC assembler.
 *
 * Netlists are canonical:
 *  - wires [0, numInputs()) are primary inputs, Garbler's first, then
 *    the Evaluator's, then (optionally) one public constant-one wire;
 *  - gate g produces wire numInputs() + g (outputs are dense and in
 *    gate order, which is also why the HAAC baseline program needs no
 *    separate renaming pass, cf. paper Fig. 5);
 *  - every gate input is a previously defined wire (topological order).
 *
 * Only AND and XOR survive here: NOT is free under FreeXOR and the
 * builder/Bristol reader lower it to XOR with the constant-one wire,
 * matching HAAC's {AND, XOR, NOP} ISA.
 */
#ifndef HAAC_CIRCUIT_NETLIST_H
#define HAAC_CIRCUIT_NETLIST_H

#include <cstdint>
#include <string>
#include <vector>

namespace haac {

/** Netlist wire index. */
using WireId = uint32_t;

inline constexpr WireId kNoWire = ~WireId(0);

enum class GateOp : uint8_t
{
    And = 0,
    Xor = 1,
};

/** One two-input Boolean gate; its output wire id is implicit. */
struct Gate
{
    GateOp op;
    WireId a;
    WireId b;
};

/**
 * A canonical Boolean netlist.
 */
class Netlist
{
  public:
    Netlist() = default;

    /** @name Shape */
    /// @{
    uint32_t numGarblerInputs = 0;
    uint32_t numEvaluatorInputs = 0;
    /** Wire carrying public constant 1, or kNoWire if unused. */
    WireId constOne = kNoWire;

    /** Total primary-input wires (including the constant wire). */
    uint32_t
    numInputs() const
    {
        return numGarblerInputs + numEvaluatorInputs +
               (constOne == kNoWire ? 0 : 1);
    }

    uint32_t numGates() const { return uint32_t(gates.size()); }
    uint32_t numWires() const { return numInputs() + numGates(); }
    WireId outputWireOf(uint32_t gate) const { return numInputs() + gate; }
    /// @}

    std::vector<Gate> gates;

    /** Primary outputs, in user order (may repeat wires). */
    std::vector<WireId> outputs;

    /**
     * Count of AND gates (each needs a 32 B garbled table): the
     * recorded count when recordAndGates() ran on this gate list, a
     * scan of the gates otherwise.
     */
    uint32_t numAndGates() const;

    /**
     * Count the ANDs once for every later numAndGates(). The producers
     * of finished netlists call it (CircuitBuilder::build(), the
     * Bristol reader, the optimizer), so a session runner takes its
     * circuit's count from where the circuit was resolved instead of
     * rescanning the gates every session. The record lapses when the
     * gate count changes; a gate whose op is edited in place needs
     * another call.
     */
    void recordAndGates();

    /** Fraction of gates that are AND, as a percentage. */
    double andPercent() const;

    /**
     * Validate canonical-form invariants.
     *
     * @return empty string if valid, else a description of the first
     *         violation (used by tests and the Bristol reader).
     */
    std::string check() const;

    /**
     * Plaintext evaluation.
     *
     * @param garbler_bits  Garbler input bits, size numGarblerInputs.
     * @param evaluator_bits Evaluator input bits.
     * @return output bits in outputs order.
     */
    std::vector<bool> evaluate(const std::vector<bool> &garbler_bits,
                               const std::vector<bool> &evaluator_bits) const;

    /** Evaluate and also return every wire's value (for debugging). */
    std::vector<bool>
    evaluateAllWires(const std::vector<bool> &garbler_bits,
                     const std::vector<bool> &evaluator_bits) const;

  private:
    uint32_t recordedAnds_ = 0;
    /** gates.size() when recordAndGates() ran; kNoWire before. */
    uint32_t recordedFor_ = kNoWire;
};

} // namespace haac

#endif // HAAC_CIRCUIT_NETLIST_H
