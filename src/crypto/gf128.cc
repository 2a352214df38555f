#include "crypto/gf128.h"

#if defined(HAAC_USE_PCLMUL)
#include <emmintrin.h>
#include <wmmintrin.h>
#endif

namespace haac {

namespace {

/**
 * Karatsuba's three partial products, each a 128-bit carry-less
 * product of 64-bit halves: lo = a0*b0, hi = a1*b1 and
 * mid = (a0^a1)*(b0^b1). Sums of products add term-wise.
 */
struct Partials
{
    uint64_t lo[2] = {};
    uint64_t mid[2] = {};
    uint64_t hi[2] = {};
};

/**
 * Combine the partials into the 256-bit product and reduce it:
 * x^128 = x^7 + x^2 + x + 1, so the high half H folds in as
 * H ^ H<<1 ^ H<<2 ^ H<<7; the up-to-7 bits that shift past x^128 fold
 * once more and land below x^14.
 */
Label
reduce(const Partials &p)
{
    const uint64_t m0 = p.mid[0] ^ p.lo[0] ^ p.hi[0];
    const uint64_t m1 = p.mid[1] ^ p.lo[1] ^ p.hi[1];
    const uint64_t w0 = p.lo[0];
    const uint64_t w1 = p.lo[1] ^ m0;
    const uint64_t w2 = p.hi[0] ^ m1;
    const uint64_t w3 = p.hi[1];

    const uint64_t spill = (w3 >> 63) ^ (w3 >> 62) ^ (w3 >> 57);
    const uint64_t r0 = w0 ^ w2 ^ (w2 << 1) ^ (w2 << 2) ^ (w2 << 7) ^
                        spill ^ (spill << 1) ^ (spill << 2) ^ (spill << 7);
    const uint64_t r1 = w1 ^ w3 ^ ((w3 << 1) | (w2 >> 63)) ^
                        ((w3 << 2) | (w2 >> 62)) ^ ((w3 << 7) | (w2 >> 57));
    return Label(r0, r1);
}

/** 64x64 -> 128-bit carry-less multiply; masks, never branches, on b. */
void
clmul64(uint64_t a, uint64_t b, uint64_t out[2])
{
    uint64_t lo = 0, hi = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t mask = 0 - ((b >> i) & 1);
        lo ^= (a << i) & mask;
        hi ^= ((a >> 1) >> (63 - i)) & mask; // a >> (64 - i), 0 at i = 0
    }
    out[0] ^= lo;
    out[1] ^= hi;
}

void
accumulatePortable(const Label a[], const Label b[], size_t n, Partials &p)
{
    for (size_t j = 0; j < n; ++j) {
        clmul64(a[j].lo, b[j].lo, p.lo);
        clmul64(a[j].hi, b[j].hi, p.hi);
        clmul64(a[j].lo ^ a[j].hi, b[j].lo ^ b[j].hi, p.mid);
    }
}

#if defined(HAAC_USE_PCLMUL)
/**
 * This file is compiled with -mpclmul, but the binary may land on an
 * x86 CPU without it: the PCLMULQDQ path dispatches on CPUID, probed
 * once per process (like haveAesni() in aes128.cc).
 */
bool
havePclmul()
{
    static const bool have = __builtin_cpu_supports("pclmul");
    return have;
}

void
accumulatePclmul(const Label a[], const Label b[], size_t n, Partials &p)
{
    static_assert(sizeof(Label) == 16, "Label must be one 128-bit block");
    __m128i lo = _mm_setzero_si128(), mid = lo, hi = lo;
    for (size_t j = 0; j < n; ++j) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(&a[j]));
        const __m128i y =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(&b[j]));
        lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, y, 0x00));
        hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(x, y, 0x11));
        // Low lanes become a0^a1 and b0^b1.
        const __m128i xf = _mm_xor_si128(x, _mm_shuffle_epi32(x, 0x4e));
        const __m128i yf = _mm_xor_si128(y, _mm_shuffle_epi32(y, 0x4e));
        mid = _mm_xor_si128(mid, _mm_clmulepi64_si128(xf, yf, 0x00));
    }
    uint64_t w[2];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w), lo);
    p.lo[0] ^= w[0];
    p.lo[1] ^= w[1];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w), mid);
    p.mid[0] ^= w[0];
    p.mid[1] ^= w[1];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(w), hi);
    p.hi[0] ^= w[0];
    p.hi[1] ^= w[1];
}
#endif

void
accumulate(const Label a[], const Label b[], size_t n, Partials &p)
{
#if defined(HAAC_USE_PCLMUL)
    if (havePclmul()) {
        accumulatePclmul(a, b, n, p);
        return;
    }
#endif
    accumulatePortable(a, b, n, p);
}

} // namespace

Label
gf128Mul(const Label &a, const Label &b)
{
    return gf128MulSum(&a, &b, 1);
}

Label
gf128MulSum(const Label a[], const Label b[], size_t n)
{
    Partials p;
    accumulate(a, b, n, p);
    return reduce(p);
}

} // namespace haac
