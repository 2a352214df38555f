/**
 * @file
 * Half-Gate garbling kernel (the paper's Garbler-side GE datapath, in
 * software).
 *
 * FreeXOR (Kolesnikov-Schneider) + Half-Gates (Zahur-Rosulek-Evans)
 * with the re-keyed hash HAAC adopts for security. Per AND gate i the
 * Garbler performs two key expansions (tweaks 2i and 2i+1) and four
 * AES hashes; XOR gates cost one 128-bit XOR. StreamingGarbler
 * (gc/streaming.h) walks a netlist with this kernel, and the hardware
 * model is validated against it (paper §5 "Correctness").
 */
#ifndef HAAC_GC_GARBLER_H
#define HAAC_GC_GARBLER_H

#include <cstdint>

#include "crypto/hash.h"
#include "crypto/label.h"

namespace haac {

/** Garbling of a single AND gate, shared by software and HW models. */
struct HalfGateGarbled
{
    GarbledTable table;
    Label outZero;
};

/**
 * Garble one AND gate (re-keyed hashes).
 *
 * @param a0,b0 zero-labels of the inputs.
 * @param r global FreeXOR offset (lsb must be 1).
 * @param gate_index used for the tweaks 2i, 2i+1.
 */
HalfGateGarbled garbleAnd(const Label &a0, const Label &b0, const Label &r,
                          uint64_t gate_index);

/** Fixed-key variant (ablation only; one shared AES key). */
HalfGateGarbled garbleAndFixedKey(const FixedKeyHasher &h, const Label &a0,
                                  const Label &b0, const Label &r,
                                  uint64_t gate_index);

} // namespace haac

#endif // HAAC_GC_GARBLER_H
