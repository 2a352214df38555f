#include "gc/instance.h"

namespace haac {

size_t
GarbledInstance::byteSize() const
{
    return sizeof(seed) + sizeof(numInputs) +
           outputZero.size() * kLabelBytes + tables.size() * kTableBytes;
}

namespace {

/** The instance's whole table array, lent as one segment. */
class CaptureSink final : public TableSegmentSink
{
  public:
    explicit CaptureSink(std::vector<GarbledTable> &tables)
        : TableSegmentSink(tables.size()), tables_(tables)
    {}

    GarbledTable *lend() override { return tables_.data(); }
    void full(size_t) override {}

  private:
    std::vector<GarbledTable> &tables_;
};

} // namespace

GarbledInstance
captureGarbling(const Netlist &netlist, uint64_t seed)
{
    GarbledInstance inst;
    inst.seed = seed;
    inst.numInputs = netlist.numInputs();
    // The pooled tables are allocated before the garbler's short-lived
    // label vectors, so a pool filler reuses their space on its next
    // capture instead of fragmenting its heap around pooled items.
    inst.tables.resize(netlist.numAndGates());
    StreamingGarbler garbler(netlist, seed);
    CaptureSink sink(inst.tables);
    garbler.run(sink);
    inst.outputZero = garbler.outputZeroLabels();
    return inst;
}

} // namespace haac
