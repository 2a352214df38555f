/**
 * @file
 * Binary32 floating-point circuits and their bit-exact host model.
 *
 * GradDesc (linear regression, Table 2) needs true floating point in
 * the circuit, and only add, sub and mul: there are no conversion or
 * compare circuits. We implement binary32 add/sub/mul with two
 * documented deviations from IEEE-754 (see DESIGN.md substitutions):
 *   - rounding is truncation (round-toward-zero) over 3 guard bits;
 *   - subnormals flush to zero; overflow saturates to e=254, m=all-ones
 *     (no inf/NaN are ever produced).
 *
 * The SoftFloat32 host functions implement the *same* algorithm on bit
 * patterns, so circuit-vs-host tests are bit-exact, and they stay within
 * 1-2 ulp of native IEEE floats, preserving GradDesc's numerics.
 */
#ifndef HAAC_CIRCUIT_FLOAT32_H
#define HAAC_CIRCUIT_FLOAT32_H

#include <cstdint>

#include "circuit/builder.h"

namespace haac {

/** @name Host (plaintext) model on raw bit patterns */
/// @{
uint32_t sfAdd(uint32_t a, uint32_t b);
uint32_t sfSub(uint32_t a, uint32_t b);
uint32_t sfMul(uint32_t a, uint32_t b);

/** Bit-pattern conversions (native float <-> uint32). */
uint32_t floatToBits(float f);
float bitsFromFloat(uint32_t bits);
/// @}

/** @name Circuit versions (32-wire little-endian words) */
/// @{
Bits floatAddCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b);
Bits floatSubCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b);
Bits floatMulCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b);
/// @}

} // namespace haac

#endif // HAAC_CIRCUIT_FLOAT32_H
