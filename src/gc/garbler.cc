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

    // The permute bits are secret: every select on them is a mask.
    HalfGateGarbled out;
    // Generator half.
    out.table.tg = ha[0] ^ ha[1] ^ selectLabel(pb, r);
    const Label wg0 = ha[0] ^ selectLabel(pa, out.table.tg);
    // Evaluator half.
    out.table.te = hb[0] ^ hb[1] ^ a0;
    const Label we0 = hb[0] ^ selectLabel(pb, hb[0] ^ hb[1]);
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
    out.table.tg = ha0 ^ ha1 ^ selectLabel(pb, r);
    const Label wg0 = ha0 ^ selectLabel(pa, out.table.tg);
    out.table.te = hb0 ^ hb1 ^ a0;
    const Label we0 = hb0 ^ selectLabel(pb, hb0 ^ hb1);
    out.outZero = wg0 ^ we0;
    return out;
}

} // namespace haac
