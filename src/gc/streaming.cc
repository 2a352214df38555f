#include "gc/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/prg.h"
#include "gc/evaluator.h"
#include "gc/garbler.h"

namespace haac {

InputLabels
expandInputLabels(uint64_t seed, size_t num_inputs)
{
    Prg prg(seed);
    InputLabels in;
    in.offset = prg.nextLabel();
    in.offset.setLsb(true);
    in.zero.resize(num_inputs);
    prg.nextLabels(in.zero.data(), num_inputs);
    return in;
}

StreamingGarbler::StreamingGarbler(const Netlist &netlist, uint64_t seed)
    : netlist_(&netlist),
      inputs_(expandInputLabels(seed, netlist.numInputs())),
      zero_(netlist.numWires())
{
}

void
StreamingGarbler::run(const TableSink &sink)
{
    if (ran_)
        throw std::logic_error("StreamingGarbler::run called twice");
    ran_ = true;

    std::copy(inputs_.zero.begin(), inputs_.zero.end(), zero_.begin());
    uint64_t and_index = 0;
    for (uint32_t g = 0; g < netlist_->numGates(); ++g) {
        const Gate &gate = netlist_->gates[g];
        const WireId wout = netlist_->outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            zero_[wout] = zero_[gate.a] ^ zero_[gate.b];
        } else {
            HalfGateGarbled hg = garbleAnd(zero_[gate.a], zero_[gate.b],
                                           inputs_.offset, and_index++);
            sink(hg.table);
            ++tablesEmitted_;
            zero_[wout] = hg.outZero;
        }
    }
    outZero_.reserve(netlist_->outputs.size());
    for (WireId w : netlist_->outputs)
        outZero_.push_back(zero_[w]);
}

std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source)
{
    if (input_labels.size() != netlist.numInputs())
        throw std::invalid_argument(
            "evaluateStreaming: wrong input label count");
    std::vector<Label> labels(netlist.numWires());
    for (uint32_t w = 0; w < netlist.numInputs(); ++w)
        labels[w] = input_labels[w];

    uint64_t and_index = 0;
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        const WireId wout = netlist.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            labels[wout] = labels[gate.a] ^ labels[gate.b];
        } else {
            const GarbledTable table = source();
            labels[wout] = evaluateAnd(labels[gate.a], labels[gate.b],
                                       table, and_index++);
        }
    }
    std::vector<Label> outs;
    outs.reserve(netlist.outputs.size());
    for (WireId w : netlist.outputs)
        outs.push_back(labels[w]);
    return outs;
}

} // namespace haac
