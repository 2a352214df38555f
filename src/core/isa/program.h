/**
 * @file
 * The HAAC ISA and program representation (paper §3.1.3).
 *
 * A HAAC instruction carries a 2-bit opcode, two input wire addresses,
 * and a live bit; the output address is implicit (outputs are generated
 * in program order, one address per instruction). Address 0 is reserved
 * to mean "read this operand from the OoRW queue" (§3.1.4).
 *
 * Address discipline: 0 is the OoRW sentinel; primary inputs occupy
 * [1, numInputs]; instruction k writes address numInputs + 1 + k. This
 * invariant holds for every HaacProgram in the repository — the
 * assembler establishes it (canonical netlists already list gate
 * outputs in order) and the compiler's rename pass re-establishes it
 * after reordering.
 *
 * One deviation from the paper's {AND, XOR, NOP}: we add a NOT opcode.
 * EMP netlists contain INV gates and the paper does not specify their
 * lowering; lowering INV to XOR-against-a-constant-wire would turn one
 * public constant into the hottest wire in the program (and a permanent
 * OoRW resident). NOT is free in both roles (Garbler: XOR with R;
 * Evaluator: copy), fits the 2-bit opcode, and keeps streams clean.
 */
#ifndef HAAC_CORE_ISA_PROGRAM_H
#define HAAC_CORE_ISA_PROGRAM_H

#include <cstdint>
#include <vector>

#include "circuit/netlist.h"

namespace haac {

/** HAAC opcode (2 bits). */
enum class HaacOp : uint8_t
{
    Nop = 0,
    And = 1,
    Xor = 2,
    Not = 3,
};

/** Reserved operand address: read from the OoRW queue instead. */
inline constexpr uint32_t kOorAddr = 0;

/**
 * One HAAC instruction.
 *
 * a/b hold *absolute* renamed wire addresses in the program; the
 * stream-generation pass replaces OoR operands with kOorAddr when it
 * builds the per-GE queues. tweak is metadata (not encoded in HW): the
 * original AND index that keys the Half-Gate hashes, kept stable across
 * compiler reorderings so garbler and evaluator stay in agreement.
 */
struct HaacInstruction
{
    HaacOp op = HaacOp::Nop;
    uint32_t a = 0;
    uint32_t b = 0;
    bool live = true;
    uint32_t tweak = 0;
};

/**
 * Field-exact equality: the contract behind the assembler round-trip
 * (`parseAsm(toAsm(prog)) == prog`). Canonical programs keep b == a for
 * NOT and NOP (the b operand is semantically ignored there, and the
 * textual form does not spell it).
 */
inline bool
operator==(const HaacInstruction &x, const HaacInstruction &y)
{
    return x.op == y.op && x.a == y.a && x.b == y.b &&
           x.live == y.live && x.tweak == y.tweak;
}

inline bool
operator!=(const HaacInstruction &x, const HaacInstruction &y)
{
    return !(x == y);
}

/**
 * A complete HAAC program.
 */
struct HaacProgram
{
    /** Primary-input wires occupy addresses [1, numInputs]. */
    uint32_t numInputs = 0;
    uint32_t numGarblerInputs = 0;
    uint32_t numEvaluatorInputs = 0;
    /** Renamed address of the constant-one wire (kOorAddr if none). */
    uint32_t constOneAddr = 0;

    std::vector<HaacInstruction> instrs;

    /** Renamed addresses of the primary outputs, in output order. */
    std::vector<uint32_t> outputs;

    /** Output address of instruction @p k (the ISA's implicit rule). */
    uint32_t outputAddrOf(size_t k) const { return numInputs + 1 + uint32_t(k); }

    /** Total defined addresses (sentinel + inputs + outputs). */
    uint32_t numAddrs() const { return numInputs + 1 + uint32_t(instrs.size()); }

    uint32_t numAnd() const;
    uint32_t numXor() const;
    uint32_t numNot() const;

    /** Validate the address discipline; empty string when valid. */
    std::string check() const;
};

inline bool
operator==(const HaacProgram &x, const HaacProgram &y)
{
    return x.numInputs == y.numInputs &&
           x.numGarblerInputs == y.numGarblerInputs &&
           x.numEvaluatorInputs == y.numEvaluatorInputs &&
           x.constOneAddr == y.constOneAddr && x.instrs == y.instrs &&
           x.outputs == y.outputs;
}

inline bool
operator!=(const HaacProgram &x, const HaacProgram &y)
{
    return !(x == y);
}

/**
 * Assemble a canonical netlist into a baseline HAAC program
 * (paper Fig. 5, "Asmblr").
 *
 * XOR gates whose second operand is the constant-one wire lower to NOT.
 * All live bits start true (the ESW pass clears them later).
 */
HaacProgram assemble(const Netlist &netlist);

/**
 * The plaintext interpreter: execute the instruction stream on Boolean
 * values (no crypto, no memory system) in index order over @p vals
 * (index = address, size numAddrs()), whose inputs — and, for a shard,
 * imports — already hold their values; the const-one wire is set here.
 * With @p owned, only instructions k with (*owned)[k] run: a shard
 * worker's pass over its own slice.
 */
void executePlainInstrs(const HaacProgram &prog, std::vector<bool> &vals,
                        const std::vector<bool> *owned = nullptr);

/** Every wire's plaintext value (index = address; address 0 false). */
std::vector<bool> executePlainWires(const HaacProgram &prog,
                                    const std::vector<bool> &garbler_bits,
                                    const std::vector<bool> &evaluator_bits);

/**
 * The primary outputs of executePlainWires(): the fast semantic oracle
 * for compiler-equivalence checks; the functional HAAC machine
 * (core/sim/functional.h) is the slow, full-fidelity one.
 */
std::vector<bool> executePlain(const HaacProgram &prog,
                               const std::vector<bool> &garbler_bits,
                               const std::vector<bool> &evaluator_bits);

/**
 * Instruction encoding size in bytes for a given SWW capacity
 * (2b op + 2 addresses of ceil(log2(sww_wires)) bits + 1b live),
 * e.g. 5 bytes for a 2 MB SWW (the paper's 17-bit addresses).
 */
uint32_t encodedInstrBytes(uint32_t sww_wires);

/** Bit-pack one instruction (physical = addr mod sww_wires). */
uint64_t encodeInstr(const HaacInstruction &ins, uint32_t sww_wires);

/** Inverse of encodeInstr; tweak/absolute addresses are not recovered. */
HaacInstruction decodeInstr(uint64_t bits, uint32_t sww_wires);

} // namespace haac

#endif // HAAC_CORE_ISA_PROGRAM_H
