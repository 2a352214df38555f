/**
 * @file
 * Word-level circuit library on top of CircuitBuilder.
 *
 * All values are little-endian Bits (bit 0 first). Arithmetic is
 * modular (two's complement), so the same adder/multiplier serves
 * signed and unsigned words; comparators come in both flavors. The
 * library holds what the workloads, chain components and benches
 * build; a new operator comes with its first caller.
 *
 * Gate-cost notes (per bit, FreeXOR cost model where only AND pays):
 *  - add/sub: 1 AND (carry-majority form)
 *  - mux: 1 AND
 *  - unsigned compare: 1 AND (borrow chain)
 *  - n x n multiply: ~n^2 AND (schoolbook rows + ripple adders)
 */
#ifndef HAAC_CIRCUIT_STDLIB_H
#define HAAC_CIRCUIT_STDLIB_H

#include <cstdint>

#include "circuit/builder.h"

namespace haac {

/** Result of an add/sub that also exposes the carry/borrow-out. */
struct SumCarry
{
    Bits sum;
    Wire carry;
};

/** a + b + carry_in, same width as inputs. */
SumCarry addWithCarry(CircuitBuilder &cb, const Bits &a, const Bits &b,
                      Wire carry_in);

/** a + b (mod 2^n), ripple-carry (n ANDs, depth ~n). */
Bits addBits(CircuitBuilder &cb, const Bits &a, const Bits &b);

/**
 * a + b (mod 2^n) with a Kogge-Stone prefix carry network:
 * ~2n*log2(n) ANDs but O(log n) depth. The classic GC tradeoff —
 * more tables for less latency; on HAAC the shallow form raises ILP
 * for in-order GEs (see bench/ablation_adder_depth).
 */
Bits addBitsKoggeStone(CircuitBuilder &cb, const Bits &a,
                       const Bits &b);

/** a - b (mod 2^n). */
Bits subBits(CircuitBuilder &cb, const Bits &a, const Bits &b);

/** Bitwise ops over equal-width words. */
Bits andBits(CircuitBuilder &cb, const Bits &a, const Bits &b);
Bits xorBits(CircuitBuilder &cb, const Bits &a, const Bits &b);
Bits notBits(CircuitBuilder &cb, const Bits &a);

/** a * b, truncated to out_width bits (schoolbook). */
Bits mulBits(CircuitBuilder &cb, const Bits &a, const Bits &b,
             uint32_t out_width);

/** Unsigned a < b (borrow of a - b). */
Wire ltUnsigned(CircuitBuilder &cb, const Bits &a, const Bits &b);

/** Signed (two's complement) a < b. */
Wire ltSigned(CircuitBuilder &cb, const Bits &a, const Bits &b);

/** a == b. */
Wire eqBits(CircuitBuilder &cb, const Bits &a, const Bits &b);

/** Reduction AND / OR over a word. */
Wire reduceAnd(CircuitBuilder &cb, const Bits &a);
Wire reduceOr(CircuitBuilder &cb, const Bits &a);

/** s ? t : f, bitwise. */
Bits muxBits(CircuitBuilder &cb, Wire s, const Bits &t, const Bits &f);

/** Shifts by a compile-time constant (free: rewiring + constant fill). */
Bits shlConst(CircuitBuilder &cb, const Bits &a, uint32_t k);
Bits shrConst(CircuitBuilder &cb, const Bits &a, uint32_t k);

/**
 * Logical right shift by a runtime amount (barrel shifter).
 *
 * Shift amounts >= width yield zero.
 * @param amt little-endian shift amount (any width).
 */
Bits shrVar(CircuitBuilder &cb, const Bits &a, const Bits &amt);

/** Zero-extend / truncate to @p width. */
Bits zeroExtend(CircuitBuilder &cb, const Bits &a, uint32_t width);

/** Population count (adder tree); result width = ceil(log2(n+1)). */
Bits popcount(CircuitBuilder &cb, const Bits &a);

/** ReLU on a signed word: sign ? 0 : a (the paper's 33-gate kernel). */
Bits reluBits(CircuitBuilder &cb, const Bits &a);

/**
 * Conditional swap: if c, (a, b) -> (b, a). The compare-and-swap core
 * of sorting networks; costs one AND per bit (shared XOR trick).
 */
void condSwap(CircuitBuilder &cb, Wire c, Bits &a, Bits &b);

} // namespace haac

#endif // HAAC_CIRCUIT_STDLIB_H
