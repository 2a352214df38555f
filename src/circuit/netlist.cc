#include "circuit/netlist.h"

#include <sstream>

namespace haac {

namespace {

uint32_t
countAnds(const std::vector<Gate> &gates)
{
    uint32_t n = 0;
    for (const Gate &g : gates)
        n += g.op == GateOp::And ? 1 : 0;
    return n;
}

} // namespace

uint32_t
Netlist::numAndGates() const
{
    return recordedFor_ == gates.size() ? recordedAnds_ : countAnds(gates);
}

void
Netlist::recordAndGates()
{
    recordedAnds_ = countAnds(gates);
    recordedFor_ = numGates();
}

double
Netlist::andPercent() const
{
    if (gates.empty())
        return 0.0;
    return 100.0 * double(numAndGates()) / double(gates.size());
}

std::string
Netlist::check() const
{
    const uint32_t inputs = numInputs();
    if (constOne != kNoWire && constOne != inputs - 1) {
        return "constOne must be the last input wire";
    }
    for (uint32_t g = 0; g < gates.size(); ++g) {
        const WireId out = inputs + g;
        if (gates[g].a >= out || gates[g].b >= out) {
            std::ostringstream os;
            os << "gate " << g << " reads an undefined wire";
            return os.str();
        }
    }
    for (WireId w : outputs) {
        if (w >= numWires())
            return "output references an undefined wire";
    }
    return "";
}

std::vector<bool>
Netlist::evaluateAllWires(const std::vector<bool> &garbler_bits,
                          const std::vector<bool> &evaluator_bits) const
{
    std::vector<bool> vals(numWires(), false);
    uint32_t w = 0;
    for (uint32_t i = 0; i < numGarblerInputs; ++i)
        vals[w++] = garbler_bits.at(i);
    for (uint32_t i = 0; i < numEvaluatorInputs; ++i)
        vals[w++] = evaluator_bits.at(i);
    if (constOne != kNoWire)
        vals[w++] = true;
    for (uint32_t g = 0; g < gates.size(); ++g) {
        const Gate &gate = gates[g];
        const bool a = vals[gate.a];
        const bool b = vals[gate.b];
        vals[w++] = gate.op == GateOp::And ? (a && b) : (a != b);
    }
    return vals;
}

std::vector<bool>
Netlist::evaluate(const std::vector<bool> &garbler_bits,
                  const std::vector<bool> &evaluator_bits) const
{
    std::vector<bool> vals = evaluateAllWires(garbler_bits, evaluator_bits);
    std::vector<bool> out;
    out.reserve(outputs.size());
    for (WireId w : outputs)
        out.push_back(vals[w]);
    return out;
}

} // namespace haac
