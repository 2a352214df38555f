#include "gc/garbler.h"

namespace haac {

HalfGateGarbled
garbleAnd(const Label &a0, const Label &b0, const Label &r,
          uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool pa = a0.lsb();
    const bool pb = b0.lsb();

    // One key expansion per tweak, shared by the pair of hashes under
    // it (the Fig. 2 datapath: 2 expansions, 4 AES), in one fused call.
    const Label xa[2] = {a0, a0 ^ r};
    const Label xb[2] = {b0, b0 ^ r};
    Label ha[2], hb[2];
    hashRekeyedPair(j0, j1, xa, ha, xb, hb, 2);

    HalfGateGarbled out;
    // Generator half.
    out.table.tg = ha[0] ^ ha[1];
    if (pb)
        out.table.tg ^= r;
    Label wg0 = ha[0];
    if (pa)
        wg0 ^= out.table.tg;
    // Evaluator half.
    out.table.te = hb[0] ^ hb[1] ^ a0;
    Label we0 = hb[0];
    if (pb)
        we0 ^= out.table.te ^ a0;
    out.outZero = wg0 ^ we0;
    return out;
}

HalfGateGarbled
garbleAndFixedKey(const FixedKeyHasher &h, const Label &a0, const Label &b0,
                  const Label &r, uint64_t gate_index)
{
    const uint64_t j0 = 2 * gate_index;
    const uint64_t j1 = 2 * gate_index + 1;
    const bool pa = a0.lsb();
    const bool pb = b0.lsb();

    const Label ha0 = h(a0, j0);
    const Label ha1 = h(a0 ^ r, j0);
    const Label hb0 = h(b0, j1);
    const Label hb1 = h(b0 ^ r, j1);

    HalfGateGarbled out;
    out.table.tg = ha0 ^ ha1;
    if (pb)
        out.table.tg ^= r;
    Label wg0 = ha0;
    if (pa)
        wg0 ^= out.table.tg;
    out.table.te = hb0 ^ hb1 ^ a0;
    Label we0 = hb0;
    if (pb)
        we0 ^= out.table.te ^ a0;
    out.outZero = wg0 ^ we0;
    return out;
}

Garbler::Garbler(const Netlist &netlist, uint64_t seed)
    : netlist_(&netlist)
{
    Prg prg(seed);
    r_ = prg.nextLabel();
    r_.setLsb(true); // point-and-permute requires lsb(R) == 1

    zero_.resize(netlist.numWires());
    for (uint32_t w = 0; w < netlist.numInputs(); ++w)
        zero_[w] = prg.nextLabel();

    tables_.reserve(netlist.numAndGates());
    uint64_t and_index = 0;
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = netlist.gates[g];
        const WireId out = netlist.outputWireOf(g);
        if (gate.op == GateOp::Xor) {
            zero_[out] = zero_[gate.a] ^ zero_[gate.b];
        } else {
            HalfGateGarbled hg = garbleAnd(zero_[gate.a], zero_[gate.b],
                                           r_, and_index++);
            tables_.push_back(hg.table);
            zero_[out] = hg.outZero;
        }
    }
}

bool
Garbler::decodeBit(size_t i) const
{
    return zero_[netlist_->outputs.at(i)].lsb();
}

} // namespace haac
