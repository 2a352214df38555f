/**
 * @file
 * GF(2^128) multiplication for the KOS15 OT consistency check.
 *
 * The field is GF(2)[x] / (x^128 + x^7 + x^2 + x + 1) — the standard
 * carryless-multiplication modulus — with a Label's bit i (bit i of
 * lo for i < 64, of hi above) as the coefficient of x^i. The OT
 * extension uses sums of products chi_j * t_j as a universal hash over
 * the receiver's correlation rows (gc/ot_ext.cc), one product per
 * extended OT row, so the multiply sits on the per-OT hot path.
 *
 * A product is a 128x128 -> 256-bit carry-less multiply (Karatsuba:
 * three 64x64 multiplies) followed by a reduction by the modulus. On
 * x86 with PCLMULQDQ (probed by CMake under HAAC_ENABLE_AESNI and by
 * CPUID at run time) the 64x64 multiplies are single instructions;
 * elsewhere a mask-based shift-and-XOR loop computes the same bits.
 * Neither path branches on operand bits: the rows are the receiver's
 * secret t_j. gf128MulSum() reduces once per sum rather than once per
 * product, which linearity makes equal to the XOR of the products.
 */
#ifndef HAAC_CRYPTO_GF128_H
#define HAAC_CRYPTO_GF128_H

#include <cstddef>

#include "crypto/label.h"

namespace haac {

/** a * b in GF(2^128), modulus x^128 + x^7 + x^2 + x + 1. */
Label gf128Mul(const Label &a, const Label &b);

/**
 * sum_{j < n} a[j] * b[j] in GF(2^128): the products accumulate as
 * unreduced 256-bit polynomials and the sum is reduced once. Equal to
 * the XOR of n gf128Mul() results.
 */
Label gf128MulSum(const Label a[], const Label b[], size_t n);

} // namespace haac

#endif // HAAC_CRYPTO_GF128_H
