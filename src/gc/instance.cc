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
    StreamingGarbler garbler(netlist, seed);
    inst.tables.reserve(netlist.numAndGates());
    garbler.run(
        [&](const GarbledTable &t) { inst.tables.push_back(t); });
    inst.outputZero = garbler.outputZeroLabels();
    return inst;
}

} // namespace haac
