#include "gc/streaming.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/prg.h"
#include "gc/evaluator.h"
#include "gc/garbler.h"
#include "gc/gate_walk.h"
#include "gc/key_stream.h"

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
    if (haveTweakKeyStream()) {
        tablesEmitted_ =
            garbleGatesKeyed(*netlist_, zero_, inputs_.offset, sink);
    } else {
        uint64_t and_index = 0;
        walkGates(*netlist_, zero_.data(),
                  [&](const Label &a0, const Label &b0) {
                      const HalfGateGarbled hg =
                          garbleAnd(a0, b0, inputs_.offset, and_index++);
                      sink(hg.table);
                      return hg.outZero;
                  });
        tablesEmitted_ = and_index;
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

    if (haveTweakKeyStream()) {
        evaluateGatesKeyed(netlist, labels, source);
    } else {
        uint64_t and_index = 0;
        walkGates(netlist, labels.data(),
                  [&](const Label &a, const Label &b) {
                      return evaluateAnd(a, b, source(), and_index++);
                  });
    }
    std::vector<Label> outs;
    outs.reserve(netlist.outputs.size());
    for (WireId w : netlist.outputs)
        outs.push_back(labels[w]);
    return outs;
}

} // namespace haac
