#include "gc/streaming.h"

#include <algorithm>
#include <cstring>
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
StreamingGarbler::run(TableSegmentSink &sink)
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
        SegmentWriter out(sink);
        walkGates(*netlist_, zero_.data(),
                  [&](const Label &a0, const Label &b0) {
                      const HalfGateGarbled hg =
                          garbleAnd(a0, b0, inputs_.offset, and_index++);
                      out.slot() = hg.table;
                      out.written();
                      return hg.outZero;
                  });
        out.finish();
        tablesEmitted_ = and_index;
    }
    outZero_.reserve(netlist_->outputs.size());
    for (WireId w : netlist_->outputs)
        outZero_.push_back(zero_[w]);
}

namespace {

/** Per-table delivery over a short segment. */
class EachTableSink final : public TableSegmentSink
{
  public:
    explicit EachTableSink(const TableSink &sink)
        : TableSegmentSink(kTables), sink_(sink)
    {}

    GarbledTable *lend() override { return buffer_; }

    void
    full(size_t count) override
    {
        for (size_t i = 0; i < count; ++i)
            sink_(buffer_[i]);
    }

  private:
    static constexpr size_t kTables = 64;
    const TableSink &sink_;
    GarbledTable buffer_[kTables];
};

/** Runs of one table, pulled on demand. */
class EachTableSource final : public TableSegmentSource
{
  public:
    explicit EachTableSource(const TableSource &source) : source_(source)
    {}

    const uint8_t *
    next(size_t &count) override
    {
        table_ = source_();
        count = 1;
        return reinterpret_cast<const uint8_t *>(&table_);
    }

  private:
    const TableSource &source_;
    GarbledTable table_;
};

} // namespace

void
StreamingGarbler::run(const TableSink &sink)
{
    EachTableSink each(sink);
    run(each);
}

std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  TableSegmentSource &source)
{
    if (input_labels.size() != netlist.numInputs())
        throw std::invalid_argument(
            "evaluateStreaming: wrong input label count");
    std::vector<Label> labels(netlist.numWires());
    std::copy(input_labels.begin(), input_labels.end(), labels.begin());

    if (haveTweakKeyStream()) {
        evaluateGatesKeyed(netlist, labels, source);
    } else {
        uint64_t and_index = 0;
        SegmentReader in(source);
        walkGates(netlist, labels.data(),
                  [&](const Label &a, const Label &b) {
                      GarbledTable table;
                      std::memcpy(&table, in.next(), kTableBytes);
                      return evaluateAnd(a, b, table, and_index++);
                  });
    }
    std::vector<Label> outs;
    outs.reserve(netlist.outputs.size());
    for (WireId w : netlist.outputs)
        outs.push_back(labels[w]);
    return outs;
}

std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source)
{
    EachTableSource each(source);
    return evaluateStreaming(netlist, input_labels, each);
}

} // namespace haac
