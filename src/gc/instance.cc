#include "gc/instance.h"

namespace haac {

size_t
GarbledInstance::byteSize() const
{
    return sizeof(seed) + sizeof(numInputs) +
           outputZero.size() * kLabelBytes + tables.size() * kTableBytes;
}

GarbledInstance
captureGarbling(const Netlist &netlist, uint64_t seed)
{
    GarbledInstance inst;
    inst.seed = seed;
    inst.numInputs = netlist.numInputs();
    // The pooled tables are allocated before the garbler's short-lived
    // label vectors, so a pool filler reuses their space on its next
    // capture instead of fragmenting its heap around pooled items.
    inst.tables.reserve(netlist.numAndGates());
    StreamingGarbler garbler(netlist, seed);
    garbler.run(
        [&](const GarbledTable &t) { inst.tables.push_back(t); });
    inst.outputZero = garbler.outputZeroLabels();
    return inst;
}

} // namespace haac
