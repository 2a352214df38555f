#include "gc/evaluator.h"

#include <stdexcept>

namespace haac {

Label
evaluateAnd(const Label &a, const Label &b, const GarbledTable &table,
            uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool sa = a.lsb();
    const bool sb = b.lsb();

    Label wg, we;
    hashRekeyedPair(j0, j1, &a, &wg, &b, &we, 1);
    if (sa)
        wg ^= table.tg;
    if (sb)
        we ^= table.te ^ a;
    return wg ^ we;
}

Label
evaluateAndFixedKey(const FixedKeyHasher &h, const Label &a, const Label &b,
                    const GarbledTable &table, uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool sa = a.lsb();
    const bool sb = b.lsb();

    Label wg = h(a, j0);
    if (sa)
        wg ^= table.tg;
    Label we = h(b, j1);
    if (sb)
        we ^= table.te ^ a;
    return wg ^ we;
}

std::vector<Label>
Evaluator::evaluateAllWires(const std::vector<Label> &input_labels,
                            const std::vector<GarbledTable> &tables) const
{
    const Netlist &nl = *netlist_;
    if (input_labels.size() != nl.numInputs())
        throw std::invalid_argument("evaluator: wrong input label count");

    std::vector<Label> labels(nl.numWires());
    for (uint32_t w = 0; w < nl.numInputs(); ++w)
        labels[w] = input_labels[w];

    uint64_t and_index = 0;
    for (uint32_t g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gates[g];
        const WireId out = nl.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            labels[out] = labels[gate.a] ^ labels[gate.b];
        } else {
            if (and_index >= tables.size())
                throw std::invalid_argument("evaluator: too few tables");
            labels[out] = evaluateAnd(labels[gate.a], labels[gate.b],
                                      tables[and_index], and_index);
            ++and_index;
        }
    }
    return labels;
}

std::vector<Label>
Evaluator::evaluate(const std::vector<Label> &input_labels,
                    const std::vector<GarbledTable> &tables) const
{
    std::vector<Label> labels = evaluateAllWires(input_labels, tables);
    std::vector<Label> out;
    out.reserve(netlist_->outputs.size());
    for (WireId w : netlist_->outputs)
        out.push_back(labels[w]);
    return out;
}

} // namespace haac
