#include "core/isa/program.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace haac {

uint32_t
HaacProgram::numAnd() const
{
    uint32_t n = 0;
    for (const HaacInstruction &i : instrs)
        n += i.op == HaacOp::And ? 1 : 0;
    return n;
}

uint32_t
HaacProgram::numXor() const
{
    uint32_t n = 0;
    for (const HaacInstruction &i : instrs)
        n += i.op == HaacOp::Xor ? 1 : 0;
    return n;
}

uint32_t
HaacProgram::numNot() const
{
    uint32_t n = 0;
    for (const HaacInstruction &i : instrs)
        n += i.op == HaacOp::Not ? 1 : 0;
    return n;
}

std::string
HaacProgram::check() const
{
    // numAddrs() and outputAddrOf() are 32-bit: a wrapped count would
    // let out-of-range addresses pass every check below.
    if (uint64_t(numInputs) + 1 + instrs.size() > UINT32_MAX)
        return "program addresses exceed 32 bits";
    for (size_t k = 0; k < instrs.size(); ++k) {
        const HaacInstruction &ins = instrs[k];
        const uint32_t out = outputAddrOf(k);
        if (ins.a == kOorAddr || ins.a >= out)
            return "instruction reads an undefined/sentinel address (a)";
        if (ins.op != HaacOp::Not &&
            (ins.b == kOorAddr || ins.b >= out)) {
            return "instruction reads an undefined/sentinel address (b)";
        }
    }
    for (uint32_t o : outputs) {
        if (o == kOorAddr || o >= numAddrs())
            return "program output address out of range";
    }
    if (constOneAddr != kOorAddr && constOneAddr > numInputs)
        return "constOneAddr must be an input address";
    return "";
}

HaacProgram
assemble(const Netlist &netlist)
{
    assert(netlist.check().empty());
    HaacProgram prog;
    prog.numInputs = netlist.numInputs();
    prog.numGarblerInputs = netlist.numGarblerInputs;
    prog.numEvaluatorInputs = netlist.numEvaluatorInputs;
    prog.constOneAddr =
        netlist.constOne == kNoWire ? kOorAddr : netlist.constOne + 1;

    prog.instrs.reserve(netlist.numGates());
    uint32_t and_index = 0;
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        HaacInstruction ins;
        const uint32_t a = gate.a + 1;
        const uint32_t b = gate.b + 1;
        if (gate.op == GateOp::And) {
            ins.op = HaacOp::And;
            ins.a = a;
            ins.b = b;
            ins.tweak = and_index++;
        } else if (prog.constOneAddr != kOorAddr &&
                   (a == prog.constOneAddr || b == prog.constOneAddr)) {
            // XOR with the public one => free NOT.
            ins.op = HaacOp::Not;
            ins.a = a == prog.constOneAddr ? b : a;
            ins.b = ins.a;
        } else {
            ins.op = HaacOp::Xor;
            ins.a = a;
            ins.b = b;
        }
        ins.live = true;
        prog.instrs.push_back(ins);
    }

    prog.outputs.reserve(netlist.outputs.size());
    for (WireId w : netlist.outputs)
        prog.outputs.push_back(w + 1);

    assert(prog.check().empty());
    return prog;
}

namespace {

/**
 * kOwnedOnly is a template argument so that the whole-program loop,
 * which runs on every simulated session, tests nothing per instruction.
 */
template <bool kOwnedOnly>
void
runInstrs(const HaacProgram &prog, std::vector<bool> &vals,
          const std::vector<bool> *owned)
{
    for (size_t k = 0; k < prog.instrs.size(); ++k) {
        if (kOwnedOnly && !(*owned)[k])
            continue;
        const HaacInstruction &ins = prog.instrs[k];
        const bool a = vals[ins.a];
        const bool b = vals[ins.b];
        bool out = false;
        switch (ins.op) {
          case HaacOp::And:
            out = a && b;
            break;
          case HaacOp::Xor:
            out = a != b;
            break;
          case HaacOp::Not:
            out = !a;
            break;
          case HaacOp::Nop:
            break;
        }
        vals[prog.outputAddrOf(k)] = out;
    }
}

} // namespace

void
executePlainInstrs(const HaacProgram &prog, std::vector<bool> &vals,
                   const std::vector<bool> *owned)
{
    assert(vals.size() == prog.numAddrs());
    assert(owned == nullptr || owned->size() == prog.instrs.size());
    if (prog.constOneAddr != kOorAddr)
        vals[prog.constOneAddr] = true;
    if (owned != nullptr)
        runInstrs<true>(prog, vals, owned);
    else
        runInstrs<false>(prog, vals, nullptr);
}

std::vector<bool>
executePlainWires(const HaacProgram &prog,
                  const std::vector<bool> &garbler_bits,
                  const std::vector<bool> &evaluator_bits)
{
    assert(garbler_bits.size() == prog.numGarblerInputs);
    assert(evaluator_bits.size() == prog.numEvaluatorInputs);
    std::vector<bool> vals(prog.numAddrs(), false);
    const auto inputs = std::copy(garbler_bits.begin(), garbler_bits.end(),
                                  vals.begin() + 1);
    std::copy(evaluator_bits.begin(), evaluator_bits.end(), inputs);
    executePlainInstrs(prog, vals);
    return vals;
}

std::vector<bool>
executePlain(const HaacProgram &prog,
             const std::vector<bool> &garbler_bits,
             const std::vector<bool> &evaluator_bits)
{
    const std::vector<bool> vals =
        executePlainWires(prog, garbler_bits, evaluator_bits);
    std::vector<bool> outs;
    outs.reserve(prog.outputs.size());
    for (uint32_t o : prog.outputs)
        outs.push_back(vals[o]);
    return outs;
}

namespace {

uint32_t
addrBits(uint32_t sww_wires)
{
    uint32_t bits = 0;
    while ((uint64_t(1) << bits) < sww_wires)
        ++bits;
    return bits;
}

} // namespace

uint32_t
encodedInstrBytes(uint32_t sww_wires)
{
    const uint32_t bits = 2 + 2 * addrBits(sww_wires) + 1;
    return (bits + 7) / 8;
}

uint64_t
encodeInstr(const HaacInstruction &ins, uint32_t sww_wires)
{
    const uint32_t bits = addrBits(sww_wires);
    const uint64_t mask = (uint64_t(1) << bits) - 1;
    uint64_t enc = uint64_t(ins.op) & 0x3;
    enc |= (uint64_t(ins.a % sww_wires) & mask) << 2;
    enc |= (uint64_t(ins.b % sww_wires) & mask) << (2 + bits);
    enc |= uint64_t(ins.live ? 1 : 0) << (2 + 2 * bits);
    return enc;
}

HaacInstruction
decodeInstr(uint64_t enc, uint32_t sww_wires)
{
    const uint32_t bits = addrBits(sww_wires);
    const uint64_t mask = (uint64_t(1) << bits) - 1;
    HaacInstruction ins;
    ins.op = HaacOp(enc & 0x3);
    ins.a = uint32_t((enc >> 2) & mask);
    ins.b = uint32_t((enc >> (2 + bits)) & mask);
    ins.live = ((enc >> (2 + 2 * bits)) & 1) != 0;
    return ins;
}

} // namespace haac
