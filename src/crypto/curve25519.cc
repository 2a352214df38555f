#include "crypto/curve25519.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "platform/host_cpu.h"

#if defined(HAAC_USE_IFMA)
#include <immintrin.h>
#endif

namespace haac {
namespace ec {

namespace {

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64(1) << 51) - 1;
constexpr u64 kMask52 = (u64(1) << 52) - 1;
constexpr u64 kMask47 = (u64(1) << 47) - 1;

// Curve constants as 51-bit limbs; tests/test_crypto.cc cross-checks
// the compressed base point against the RFC 8032 value.
constexpr u64 kD[5] = {0x34dca135978a3ull, 0x1a8283b156ebdull,
                       0x5e7a26001c029ull, 0x739c663a03cbbull,
                       0x52036cee2b6ffull};
constexpr u64 kD2[5] = {0x69b9426b2f159ull, 0x35050762add7aull,
                        0x3cf44c0038052ull, 0x6738cc7407977ull,
                        0x2406d9dc56dffull};
constexpr u64 kSqrtM1[5] = {0x61b274a0ea0b0ull, 0x0d5a5fc8f189dull,
                            0x7ef5e9cbd0c60ull, 0x78595a6804c9eull,
                            0x2b8324804fc1dull};
constexpr u64 kBaseX[5] = {0x62d608f25d51aull, 0x412a4b4f6592aull,
                           0x75b7171a4b31dull, 0x1ff60527118feull,
                           0x216936d3cd6e5ull};
constexpr u64 kBaseY[5] = {0x6666666666658ull, 0x4ccccccccccccull,
                           0x1999999999999ull, 0x3333333333333ull,
                           0x6666666666666ull};
constexpr u64 kBaseT[5] = {0x68ab3a5b7dda3ull, 0x00eea2a5eadbbull,
                           0x2af8df483c27eull, 0x332b375274732ull,
                           0x67875f0fd78b7ull};

void
feZero(u64 out[5])
{
    out[0] = out[1] = out[2] = out[3] = out[4] = 0;
}

void
feOne(u64 out[5])
{
    out[0] = 1;
    out[1] = out[2] = out[3] = out[4] = 0;
}

void
feCopy(u64 out[5], const u64 a[5])
{
    std::memcpy(out, a, 5 * sizeof(u64));
}

void
feAdd(u64 out[5], const u64 a[5], const u64 b[5])
{
    for (int i = 0; i < 5; ++i)
        out[i] = a[i] + b[i];
}

/** out = a - b, with a 2p bias so limbs never underflow. */
void
feSub(u64 out[5], const u64 a[5], const u64 b[5])
{
    // 2p in radix-51: limb0 = 2^52-38, limbs 1..4 = 2^52-2.
    out[0] = a[0] + 0xfffffffffffdaull - b[0];
    out[1] = a[1] + 0xffffffffffffeull - b[1];
    out[2] = a[2] + 0xffffffffffffeull - b[2];
    out[3] = a[3] + 0xffffffffffffeull - b[3];
    out[4] = a[4] + 0xffffffffffffeull - b[4];
}

/** Carry limbs back under 2^51 (+epsilon); keeps values loosely reduced. */
void
feCarry(u64 a[5])
{
    u64 c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
    c = a[1] >> 51; a[1] &= kMask51; a[2] += c;
    c = a[2] >> 51; a[2] &= kMask51; a[3] += c;
    c = a[3] >> 51; a[3] &= kMask51; a[4] += c;
    c = a[4] >> 51; a[4] &= kMask51; a[0] += 19 * c;
    c = a[0] >> 51; a[0] &= kMask51; a[1] += c;
}

void
feMul(u64 out[5], const u64 a[5], const u64 b[5])
{
    const u128 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
    // 19-fold the limb products that wrap past 2^255.
    const u64 b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3,
              b4_19 = 19 * b4;

    u128 r0 = a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19;
    u128 r1 = a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19;
    u128 r2 = a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19;
    u128 r3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19;
    u128 r4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0;

    u64 c;
    u64 t0 = u64(r0) & kMask51; c = u64(r0 >> 51);
    r1 += c;
    u64 t1 = u64(r1) & kMask51; c = u64(r1 >> 51);
    r2 += c;
    u64 t2 = u64(r2) & kMask51; c = u64(r2 >> 51);
    r3 += c;
    u64 t3 = u64(r3) & kMask51; c = u64(r3 >> 51);
    r4 += c;
    u64 t4 = u64(r4) & kMask51; c = u64(r4 >> 51);
    t0 += 19 * c;
    c = t0 >> 51; t0 &= kMask51;
    t1 += c;

    out[0] = t0; out[1] = t1; out[2] = t2; out[3] = t3; out[4] = t4;
}

/** out = a^2: feMul with the symmetric limb products merged. */
void
feSq(u64 out[5], const u64 a[5])
{
    const u128 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
    const u64 a0_2 = 2 * a[0], a1_2 = 2 * a[1];
    const u64 a1_38 = 38 * a[1], a2_38 = 38 * a[2], a3_38 = 38 * a[3],
              a3_19 = 19 * a[3], a4_19 = 19 * a[4];

    u128 r0 = a0 * a0 + a4 * a1_38 + a3 * a2_38;
    u128 r1 = a1 * a0_2 + a4 * a2_38 + a3 * a3_19;
    u128 r2 = a2 * a0_2 + a1 * a1 + a4 * a3_38;
    u128 r3 = a3 * a0_2 + a2 * a1_2 + a4 * a4_19;
    u128 r4 = a4 * a0_2 + a3 * a1_2 + a2 * a2;

    u64 c;
    u64 t0 = u64(r0) & kMask51; c = u64(r0 >> 51);
    r1 += c;
    u64 t1 = u64(r1) & kMask51; c = u64(r1 >> 51);
    r2 += c;
    u64 t2 = u64(r2) & kMask51; c = u64(r2 >> 51);
    r3 += c;
    u64 t3 = u64(r3) & kMask51; c = u64(r3 >> 51);
    r4 += c;
    u64 t4 = u64(r4) & kMask51; c = u64(r4 >> 51);
    t0 += 19 * c;
    c = t0 >> 51; t0 &= kMask51;
    t1 += c;

    out[0] = t0; out[1] = t1; out[2] = t2; out[3] = t3; out[4] = t4;
}

/** out = a^(2^count) by repeated squaring. */
void
feSqN(u64 out[5], const u64 a[5], int count)
{
    feCopy(out, a);
    for (int i = 0; i < count; ++i)
        feSq(out, out);
}

/** Shared prefix of the inversion/sqrt chains: a^(2^250 - 1). */
void
fePow250m1(u64 out[5], const u64 a[5], u64 *t0_out /* a^11 */)
{
    u64 t0[5], t1[5], t2[5], t3[5];
    feSq(t0, a);                  // 2
    feSq(t1, t0);
    feSq(t1, t1);                 // 8
    feMul(t1, a, t1);             // 9
    feMul(t0, t0, t1);            // 11
    feSq(t2, t0);                 // 22
    feMul(t1, t1, t2);            // 31 = 2^5 - 1
    feSqN(t2, t1, 5);             // 2^10 - 2^5
    feMul(t1, t2, t1);            // 2^10 - 1
    feSqN(t2, t1, 10);            // 2^20 - 2^10
    feMul(t2, t2, t1);            // 2^20 - 1
    feSqN(t3, t2, 20);            // 2^40 - 2^20
    feMul(t2, t3, t2);            // 2^40 - 1
    feSqN(t2, t2, 10);            // 2^50 - 2^10
    feMul(t1, t2, t1);            // 2^50 - 1
    feSqN(t2, t1, 50);            // 2^100 - 2^50
    feMul(t2, t2, t1);            // 2^100 - 1
    feSqN(t3, t2, 100);           // 2^200 - 2^100
    feMul(t2, t3, t2);            // 2^200 - 1
    feSqN(t2, t2, 50);            // 2^250 - 2^50
    feMul(out, t2, t1);           // 2^250 - 1
    if (t0_out)
        feCopy(t0_out, t0);
}

/** out = a^(p-2) = a^-1 (Fermat). */
void
feInvert(u64 out[5], const u64 a[5])
{
    u64 t0[5], t1[5];
    fePow250m1(t1, a, t0);        // a^(2^250-1), t0 = a^11
    feSqN(t1, t1, 5);             // 2^255 - 2^5
    feMul(out, t1, t0);           // 2^255 - 21 = p - 2
}

/** out = a^((p-5)/8) = a^(2^252 - 3), the decompression root helper. */
void
fePow22523(u64 out[5], const u64 a[5])
{
    u64 t1[5];
    fePow250m1(t1, a, nullptr);   // 2^250 - 1
    feSqN(t1, t1, 2);             // 2^252 - 4
    feMul(out, t1, a);            // 2^252 - 3
}

/** Canonical little-endian serialization (fully reduced mod p). */
void
feToBytes(uint8_t out[32], const u64 in[5])
{
    u64 t[5];
    feCopy(t, in);
    feCarry(t);
    feCarry(t);
    // q = 1 iff t >= p; then t mod p = low 255 bits of t + 19q.
    u64 q = (t[0] + 19) >> 51;
    q = (t[1] + q) >> 51;
    q = (t[2] + q) >> 51;
    q = (t[3] + q) >> 51;
    q = (t[4] + q) >> 51;
    t[0] += 19 * q;
    u64 c;
    c = t[0] >> 51; t[0] &= kMask51; t[1] += c;
    c = t[1] >> 51; t[1] &= kMask51; t[2] += c;
    c = t[2] >> 51; t[2] &= kMask51; t[3] += c;
    c = t[3] >> 51; t[3] &= kMask51; t[4] += c;
    t[4] &= kMask51; // drop the 2^255 wrap

    const u64 lo0 = t[0] | (t[1] << 51);
    const u64 lo1 = (t[1] >> 13) | (t[2] << 38);
    const u64 lo2 = (t[2] >> 26) | (t[3] << 25);
    const u64 lo3 = (t[3] >> 39) | (t[4] << 12);
    std::memcpy(out, &lo0, 8);
    std::memcpy(out + 8, &lo1, 8);
    std::memcpy(out + 16, &lo2, 8);
    std::memcpy(out + 24, &lo3, 8);
}

void
feFromBytes(u64 out[5], const uint8_t in[32])
{
    u64 w0, w1, w2, w3;
    std::memcpy(&w0, in, 8);
    std::memcpy(&w1, in + 8, 8);
    std::memcpy(&w2, in + 16, 8);
    std::memcpy(&w3, in + 24, 8);
    out[0] = w0 & kMask51;
    out[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
    out[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
    out[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
    out[4] = (w3 >> 12) & kMask51; // bit 255 (the sign bit) dropped
}

bool
feIsZero(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    uint8_t acc = 0;
    for (int i = 0; i < 32; ++i)
        acc |= bytes[i];
    return acc == 0;
}

bool
feIsNegative(const u64 a[5])
{
    uint8_t bytes[32];
    feToBytes(bytes, a);
    return (bytes[0] & 1) != 0;
}

void
feNeg(u64 out[5], const u64 a[5])
{
    u64 zero[5];
    feZero(zero);
    feSub(out, zero, a);
    feCarry(out);
}

/** out = mask ? a : out, for mask all-ones or zero. */
void
feCmov(u64 out[5], const u64 a[5], u64 mask)
{
    for (int i = 0; i < 5; ++i)
        out[i] ^= (out[i] ^ a[i]) & mask;
}

/** Swap a and b when mask is all-ones; mask zero leaves both. */
void
feCswap(u64 a[5], u64 b[5], u64 mask)
{
    for (int i = 0; i < 5; ++i) {
        const u64 t = (a[i] ^ b[i]) & mask;
        a[i] ^= t;
        b[i] ^= t;
    }
}

using FeVector = std::vector<std::array<u64, 5>>;

/** Invert every element in place: Montgomery's trick, one inversion. */
void
feBatchInvert(FeVector &values)
{
    const size_t n = values.size();
    if (n == 0)
        return;
    FeVector prefix(n);
    prefix[0] = values[0];
    for (size_t i = 1; i < n; ++i)
        feMul(prefix[i].data(), prefix[i - 1].data(), values[i].data());
    u64 inv[5];
    feInvert(inv, prefix[n - 1].data());  // (v[0] ... v[n-1])^-1
    for (size_t i = n - 1; i > 0; --i) {
        u64 rest[5];
        feMul(rest, inv, values[i].data()); // (v[0] ... v[i-1])^-1
        feMul(values[i].data(), inv, prefix[i - 1].data());
        feCopy(inv, rest);
    }
    feCopy(values[0].data(), inv);
}

/**
 * Radix 2^51 (loosely reduced) to the IFMA kernels' radix 2^52: limbs
 * 0..3 < 2^52 and limb 4 < 2^48, the same residue.
 */
void
toRadix52(u64 out[5], const u64 in[5])
{
    u64 t[5];
    feCopy(t, in);
    feCarry(t); // limbs <= 2^51: the value is below 2^256
    u128 acc = 0;
    int bits = 0, k = 0;
    for (int i = 0; i < 5; ++i) {
        acc += u128(t[i]) << bits;
        for (bits += 51; bits >= 52 && k < 4; bits -= 52) {
            out[k++] = u64(acc) & kMask52;
            acc >>= 52;
        }
    }
    out[4] = u64(acc);
}

/** Radix 2^52 (limbs < 2^52) back to radix 2^51, limbs < 2^51 + 608. */
void
fromRadix52(u64 out[5], const u64 in[5])
{
    u128 acc = 0;
    int bits = 0, k = 0;
    for (int i = 0; i < 5; ++i) {
        acc += u128(in[i]) << bits;
        for (bits += 52; bits >= 51 && k < 4; bits -= 51) {
            out[k++] = u64(acc) & kMask51;
            acc >>= 51;
        }
    }
    out[4] = u64(acc) & kMask51;
    out[0] += 19 * u64(acc >> 51); // 2^255 = 19 (mod p)
}

/** Lane @p l of eight lanes' limbs (lanes[i][l] = limb i) = @p fe. */
void
setLane(u64 lanes[5][8], size_t l, const u64 fe[5])
{
    u64 limbs[5];
    toRadix52(limbs, fe);
    for (int i = 0; i < 5; ++i)
        lanes[i][l] = limbs[i];
}

/** @p fe = lane @p l of @p lanes, back in radix 2^51. */
void
getLane(u64 fe[5], const u64 lanes[5][8], size_t l)
{
    const u64 limbs[5] = {lanes[0][l], lanes[1][l], lanes[2][l],
                          lanes[3][l], lanes[4][l]};
    fromRadix52(fe, limbs);
}

/** All-ones when a == b (both small non-negative), else zero. */
u64
eqMask(u64 a, u64 b)
{
    return 0 - (((a ^ b) - 1) >> 63);
}

/**
 * Signed radix-16 digits of a 256-bit scalar: k = sum e[i] * 16^i with
 * e[i] in [-8, 8] for i < 64 and e[64] in {0, 1}. Arithmetic only, no
 * branch on the scalar.
 */
void
recodeSigned16(const Scalar &k, int8_t e[65])
{
    for (int i = 0; i < 32; ++i) {
        e[2 * i] = int8_t(k.bytes[i] & 15);
        e[2 * i + 1] = int8_t(k.bytes[i] >> 4);
    }
    int carry = 0;
    for (int i = 0; i < 64; ++i) {
        const int d = e[i] + carry;   // [0, 16]
        carry = (d + 8) >> 4;         // 1 when d >= 8
        e[i] = int8_t(d - (carry << 4));
    }
    e[64] = int8_t(carry);
}

} // namespace

/**
 * The point formulas, with access to Point's coordinates. Two
 * prepared forms of a right-hand addend save field multiplies:
 * Cached (Y+X, Y-X, 2dT, 2Z) for any point and Niels (y+x, y-x, 2dT)
 * for an affine one (Z = 1, T = xy; FixedBase's table entries).
 */
struct PointOps
{
    struct Cached
    {
        u64 yPlusX[5], yMinusX[5], t2d[5], z2[5];
    };
    using Niels = FixedBase::Entry;

    static Cached
    cached(const Point &p)
    {
        Cached c;
        feAdd(c.yPlusX, p.Y_.v, p.X_.v);
        feCarry(c.yPlusX);
        feSub(c.yMinusX, p.Y_.v, p.X_.v);
        feCarry(c.yMinusX);
        feMul(c.t2d, p.T_.v, kD2);
        feAdd(c.z2, p.Z_.v, p.Z_.v);
        return c;
    }

    /** D = 2 Z1 Z2 of the addition formula, for each addend form. */
    static void
    twoZ1Z2(u64 d[5], const Point &p, const Cached &q)
    {
        feMul(d, p.Z_.v, q.z2);
    }
    static void
    twoZ1Z2(u64 d[5], const Point &p, const Niels &)
    {
        feAdd(d, p.Z_.v, p.Z_.v);
    }

    /**
     * p + q (RFC 8032 §5.1.4's complete extended-coordinate addition).
     * A sum that only feeds a doubling may skip T (@p with_t false):
     * dbl() never reads it.
     */
    template <typename Entry>
    static Point
    add(const Point &p, const Entry &q, bool with_t = true)
    {
        u64 a[5], b[5], c[5], d[5], e[5], f[5], g[5], h[5];
        feSub(a, p.Y_.v, p.X_.v);
        feCarry(a);
        feMul(a, a, q.yMinusX);       // A = (Y1-X1)(Y2-X2)
        feAdd(b, p.Y_.v, p.X_.v);
        feMul(b, b, q.yPlusX);        // B = (Y1+X1)(Y2+X2)
        feMul(c, p.T_.v, q.t2d);      // C = 2d T1 T2
        twoZ1Z2(d, p, q);             // D = 2 Z1 Z2
        feSub(e, b, a);
        feCarry(e);                   // E = B - A
        feSub(f, d, c);
        feCarry(f);                   // F = D - C
        feAdd(g, d, c);               // G = D + C
        feAdd(h, b, a);               // H = B + A
        Point r;
        feMul(r.X_.v, e, f);
        feMul(r.Y_.v, g, h);
        if (with_t)
            feMul(r.T_.v, e, h);
        feMul(r.Z_.v, f, g);
        return r;
    }

    /**
     * RFC 8032 §5.1.4 doubling. It never reads T, so a doubling that
     * feeds another doubling may skip computing it (@p with_t false).
     */
    static Point
    dbl(const Point &p, bool with_t)
    {
        Point r;
        u64 a[5], b[5], c[5], e[5], f[5], g[5], h[5], t[5];
        feSq(a, p.X_.v);              // A = X1^2
        feSq(b, p.Y_.v);              // B = Y1^2
        feSq(c, p.Z_.v);
        feAdd(c, c, c);               // C = 2 Z1^2
        feAdd(h, a, b);               // H = A + B
        feAdd(t, p.X_.v, p.Y_.v);
        feCarry(t);
        feSq(t, t);
        feSub(e, h, t);
        feCarry(e);                   // E = H - (X1+Y1)^2
        feSub(g, a, b);
        feCarry(g);                   // G = A - B
        feAdd(f, c, g);               // F = C + G
        feMul(r.X_.v, e, f);
        feMul(r.Y_.v, g, h);
        if (with_t)
            feMul(r.T_.v, e, h);
        feMul(r.Z_.v, f, g);
        return r;
    }

    /** 16 * p: four doublings, only the last one computing T. */
    static Point
    times16(const Point &p)
    {
        return dbl(dbl(dbl(dbl(p, false), false), false), true);
    }

    /** The neutral element (0, 1) as an addend: Y+X = Y-X = 1, T = 0. */
    static void
    setNeutral(Cached &c)
    {
        c = Cached{};
        c.yPlusX[0] = c.yMinusX[0] = 1;
        c.z2[0] = 2;
    }
    static void
    setNeutral(Niels &n)
    {
        n = Niels{};
        n.yPlusX[0] = n.yMinusX[0] = 1;
    }

    /**
     * d * table[|d| - 1], negated when d < 0, for d in [-8, 8] (zero
     * gives the neutral element). Every entry is read and masked in,
     * so the memory trace does not depend on d.
     */
    template <typename Entry>
    static Entry
    select(const Entry table[8], int8_t d)
    {
        static_assert(sizeof(Entry) % sizeof(u64) == 0,
                      "entries are whole field elements");
        constexpr size_t kWords = sizeof(Entry) / sizeof(u64);
        const u64 neg = 0 - u64(uint8_t(d) >> 7);
        const u64 abs = u64((int64_t(d) ^ int64_t(neg)) - int64_t(neg));
        Entry out;
        setNeutral(out);
        u64 acc[kWords], word[kWords];
        std::memcpy(acc, &out, sizeof acc);
        for (u64 j = 0; j < 8; ++j) {
            const u64 mask = eqMask(abs, j + 1);
            std::memcpy(word, &table[j], sizeof word);
            for (size_t i = 0; i < kWords; ++i)
                acc[i] ^= (acc[i] ^ word[i]) & mask;
        }
        std::memcpy(&out, acc, sizeof acc);
        // -(x, y) = (-x, y): swaps Y+X with Y-X and negates T.
        feCswap(out.yPlusX, out.yMinusX, neg);
        u64 negated[5];
        feNeg(negated, out.t2d);
        feCmov(out.t2d, negated, neg);
        return out;
    }

    /**
     * Affine x[i], y[i] of @p points[i], i < @p n, for one field
     * inversion in total (Montgomery's trick over the Z coordinates).
     */
    static void
    affine(const Point points[], size_t n, FeVector &x, FeVector &y)
    {
        FeVector zinv(n);
        for (size_t i = 0; i < n; ++i)
            feCopy(zinv[i].data(), points[i].Z_.v);
        feBatchInvert(zinv);
        x.resize(n);
        y.resize(n);
        for (size_t i = 0; i < n; ++i) {
            feMul(x[i].data(), points[i].X_.v, zinv[i].data());
            feMul(y[i].data(), points[i].Y_.v, zinv[i].data());
        }
    }

    /** y of an encoding, u = y^2 - 1 and v = d y^2 + 1 (RFC 8032). */
    static void
    decodeStart(const uint8_t in[kPointBytes], u64 y[5], u64 u[5],
                u64 v[5])
    {
        u64 y2[5], one[5];
        feFromBytes(y, in);
        feSq(y2, y);
        feOne(one);
        feSub(u, y2, one);
        feCarry(u);
        feMul(v, y2, kD);
        feAdd(v, v, one);
        feCarry(v);
    }

    /** The root candidate x = u v^3 (u v^7)^((p-5)/8) (RFC 8032). */
    static void
    rootCandidate(u64 x[5], const u64 u[5], const u64 v[5])
    {
        u64 v3[5], v7[5], t[5];
        feSq(v3, v);
        feMul(v3, v3, v);         // v^3
        feSq(v7, v3);
        feMul(v7, v7, v);         // v^7
        feMul(t, u, v7);
        fePow22523(t, t);
        feMul(x, u, v3);
        feMul(x, x, t);
    }

    /**
     * Check the candidate x (v x^2 = +-u), fix its root and sign and
     * fill @p out; false when @p in encodes no curve point.
     */
    static bool
    decodeFinish(const uint8_t in[kPointBytes], const u64 y[5],
                 const u64 u[5], const u64 v[5], u64 x[5], Point &out)
    {
        const bool sign = (in[31] & 0x80) != 0;
        u64 check[5], diff[5], sum[5];
        feSq(check, x);
        feMul(check, check, v);   // v x^2
        feSub(diff, check, u);
        feCarry(diff);
        feAdd(sum, check, u);
        feCarry(sum);
        if (!feIsZero(diff)) {
            if (!feIsZero(sum))
                return false;     // not a square: not on the curve
            feMul(x, x, kSqrtM1);
        }

        if (feIsZero(x) && sign)
            return false;         // -0 is not canonical
        if (feIsNegative(x) != sign)
            feNeg(x, x);

        feCopy(out.X_.v, x);
        feCopy(out.Y_.v, y);
        feOne(out.Z_.v);
        feMul(out.T_.v, x, y);
        return true;
    }

    /**
     * lanes[c][i][l] = limb i (radix 2^52) of coordinate c (X, Y, Z, T)
     * of points[l] for l < @p n; the other lanes hold the neutral
     * element.
     */
    static void
    toLanes(const Point points[], size_t n, u64 lanes[4][5][8])
    {
        const Point neutral;
        for (size_t l = 0; l < 8; ++l) {
            const Point &p = l < n ? points[l] : neutral;
            const Point::Fe *coords[4] = {&p.X_, &p.Y_, &p.Z_, &p.T_};
            for (int c = 0; c < 4; ++c)
                setLane(lanes[c], l, coords[c]->v);
        }
    }

    /** points[l] from lanes l < @p n of toLanes()' layout. */
    static void
    fromLanes(const u64 lanes[4][5][8], size_t n, Point points[])
    {
        for (size_t l = 0; l < n; ++l) {
            Point &p = points[l];
            Point::Fe *coords[4] = {&p.X_, &p.Y_, &p.Z_, &p.T_};
            for (int c = 0; c < 4; ++c)
                getLane(coords[c]->v, lanes[c], l);
        }
    }

    static Point
    cmov(const Point &a, const Point &b, u64 mask)
    {
        Point r = a;
        feCmov(r.X_.v, b.X_.v, mask);
        feCmov(r.Y_.v, b.Y_.v, mask);
        feCmov(r.Z_.v, b.Z_.v, mask);
        feCmov(r.T_.v, b.T_.v, mask);
        return r;
    }
};

#if defined(HAAC_USE_IFMA)

namespace {

/**
 * The eight-lane kernels behind the batch entry points: lane l of
 * every register belongs to point (or field element) l. Only the
 * functions below touch a 512-bit register, only they are compiled for
 * AVX-512 IFMA, and they are reached only when cpu::has(cpu::kIfma);
 * everything else in this file stays on the baseline ISA.
 *
 * They run the same formulas as PointOps on field elements of five
 * radix-2^52 limbs. vpmadd52lo/huq multiply only bits 0..51 of each
 * limb, so every multiplicand is carried first (carry8(): limbs 0..3
 * < 2^52, limb 4 < 2^48); add8() and sub8() carry their results, where
 * the radix-2^51 formulas may feed uncarried sums such as G = D + C.
 *
 * Constant time: the variable-base kernel's lanes share the scalar, so
 * each digit gives one broadcast mask; the fixed-base kernel compares
 * each lane's digit against every table entry. Either way all eight
 * entries are read and blended in, and no branch or address depends
 * on a digit.
 */
#define HAAC_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))

#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 headers seed their "undefined" registers from
// themselves, which -Wuninitialized reports at every inlined broadcast:
// a known false positive, silenced for the kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/** Eight field elements: lane l of v[i] is limb i of element l. */
struct Fe8
{
    __m512i v[5];
};

HAAC_IFMA_TARGET inline __m512i
bcast(u64 x)
{
    return _mm512_set1_epi64(int64_t(x));
}

/** The same small constant @p c in every lane. */
HAAC_IFMA_TARGET inline Fe8
small8(u64 c)
{
    const __m512i zero = _mm512_setzero_si512();
    return Fe8{{bcast(c), zero, zero, zero, zero}};
}

/** The radix-2^52 element @p c in every lane. */
HAAC_IFMA_TARGET inline Fe8
constant8(const u64 c[5])
{
    return Fe8{{bcast(c[0]), bcast(c[1]), bcast(c[2]), bcast(c[3]),
                bcast(c[4])}};
}

HAAC_IFMA_TARGET inline Fe8
load8(const u64 lanes[5][8])
{
    Fe8 r;
    for (int i = 0; i < 5; ++i)
        r.v[i] = _mm512_load_si512(lanes[i]);
    return r;
}

HAAC_IFMA_TARGET inline void
store8(const Fe8 &a, u64 lanes[5][8])
{
    for (int i = 0; i < 5; ++i)
        _mm512_store_si512(lanes[i], a.v[i]);
}

/** Fold the bits from 2^255 up back in (times 19), then carry 0..4. */
HAAC_IFMA_TARGET inline void
carry8(Fe8 &a)
{
    const __m512i top = _mm512_srli_epi64(a.v[4], 47);
    a.v[4] = _mm512_and_si512(a.v[4], bcast(kMask47));
    a.v[0] = _mm512_madd52lo_epu64(a.v[0], top, bcast(19));
    for (int i = 0; i < 4; ++i) {
        a.v[i + 1] =
            _mm512_add_epi64(a.v[i + 1], _mm512_srli_epi64(a.v[i], 52));
        a.v[i] = _mm512_and_si512(a.v[i], bcast(kMask52));
    }
}

HAAC_IFMA_TARGET inline Fe8
add8(const Fe8 &a, const Fe8 &b)
{
    Fe8 r;
    for (int i = 0; i < 5; ++i)
        r.v[i] = _mm512_add_epi64(a.v[i], b.v[i]);
    carry8(r);
    return r;
}

/** a - b with a 4p bias, so no limb of a carried @p b underflows. */
HAAC_IFMA_TARGET inline Fe8
sub8(const Fe8 &a, const Fe8 &b)
{
    // p in radix 2^52: (2^52 - 19, 2^52 - 1, 2^52 - 1, 2^52 - 1, 2^47 - 1).
    static constexpr u64 k4p[5] = {4 * (kMask52 - 18), 4 * kMask52,
                                   4 * kMask52, 4 * kMask52, 4 * kMask47};
    Fe8 r;
    for (int i = 0; i < 5; ++i)
        r.v[i] = _mm512_sub_epi64(_mm512_add_epi64(a.v[i], bcast(k4p[i])),
                                  b.v[i]);
    carry8(r);
    return r;
}

/**
 * Reduce product columns z[k] (weight 2^52k, each < 2^57) mod p.
 * 2^260 = 608 (mod p), so 608 * column 5+k lands on columns k and
 * k+1. Columns 5..8 are split at bit 52 first, since the multiplier
 * reads 52 bits; column 9 is a single high half, already < 2^52.
 */
HAAC_IFMA_TARGET inline Fe8
reduce8(__m512i z[10])
{
    const __m512i k608 = bcast(608);
    for (int k = 0; k < 4; ++k) {
        const __m512i lo = _mm512_and_si512(z[5 + k], bcast(kMask52));
        const __m512i hi = _mm512_srli_epi64(z[5 + k], 52);
        z[k] = _mm512_madd52lo_epu64(z[k], lo, k608);
        z[k + 1] = _mm512_madd52hi_epu64(z[k + 1], lo, k608);
        z[k + 1] = _mm512_madd52lo_epu64(z[k + 1], hi, k608);
    }
    z[4] = _mm512_madd52lo_epu64(z[4], z[9], k608);
    const __m512i wrap =
        _mm512_madd52hi_epu64(_mm512_setzero_si512(), z[9], k608);
    z[0] = _mm512_madd52lo_epu64(z[0], wrap, k608); // 2^260 again
    Fe8 r{{z[0], z[1], z[2], z[3], z[4]}};
    carry8(r);
    return r;
}

HAAC_IFMA_TARGET inline Fe8
mul8(const Fe8 &a, const Fe8 &b)
{
    __m512i z[10];
    for (__m512i &c : z)
        c = _mm512_setzero_si512();
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j) {
            z[i + j] = _mm512_madd52lo_epu64(z[i + j], a.v[i], b.v[j]);
            z[i + j + 1] =
                _mm512_madd52hi_epu64(z[i + j + 1], a.v[i], b.v[j]);
        }
    return reduce8(z);
}

/** a^2: mul8() with each cross product computed once and doubled. */
HAAC_IFMA_TARGET inline Fe8
sq8(const Fe8 &a)
{
    __m512i z[10];
    for (__m512i &c : z)
        c = _mm512_setzero_si512();
    for (int i = 0; i < 5; ++i)
        for (int j = i + 1; j < 5; ++j) {
            z[i + j] = _mm512_madd52lo_epu64(z[i + j], a.v[i], a.v[j]);
            z[i + j + 1] =
                _mm512_madd52hi_epu64(z[i + j + 1], a.v[i], a.v[j]);
        }
    for (int k = 1; k < 9; ++k)
        z[k] = _mm512_add_epi64(z[k], z[k]);
    for (int i = 0; i < 5; ++i) {
        z[2 * i] = _mm512_madd52lo_epu64(z[2 * i], a.v[i], a.v[i]);
        z[2 * i + 1] = _mm512_madd52hi_epu64(z[2 * i + 1], a.v[i], a.v[i]);
    }
    return reduce8(z);
}

HAAC_IFMA_TARGET inline Fe8
sqN8(Fe8 a, int count)
{
    for (int i = 0; i < count; ++i)
        a = sq8(a);
    return a;
}

/** a^(2^252 - 3): fePow250m1() and fePow22523()'s chain. */
HAAC_IFMA_TARGET inline Fe8
pow22523x8(const Fe8 &a)
{
    Fe8 t0 = sq8(a);                     // 2
    Fe8 t1 = mul8(a, sqN8(t0, 2));       // 9
    t0 = mul8(t0, t1);                   // 11
    t1 = mul8(t1, sq8(t0));              // 31 = 2^5 - 1
    t1 = mul8(sqN8(t1, 5), t1);          // 2^10 - 1
    Fe8 t2 = mul8(sqN8(t1, 10), t1);     // 2^20 - 1
    t2 = mul8(sqN8(t2, 20), t2);         // 2^40 - 1
    t1 = mul8(sqN8(t2, 10), t1);         // 2^50 - 1
    t2 = mul8(sqN8(t1, 50), t1);         // 2^100 - 1
    t2 = mul8(sqN8(t2, 100), t2);        // 2^200 - 1
    t1 = mul8(sqN8(t2, 50), t1);         // 2^250 - 1
    return mul8(sqN8(t1, 2), a);         // 2^252 - 3
}

/** out = mask ? w : out, for a mask of all-ones or zero per lane. */
HAAC_IFMA_TARGET inline void
cmov8(Fe8 &out, const Fe8 &w, __m512i mask)
{
    for (int i = 0; i < 5; ++i)
        out.v[i] = _mm512_ternarylogic_epi64(mask, w.v[i], out.v[i], 0xca);
}

/** Eight points, and the two addend forms of PointOps. */
struct P8
{
    Fe8 X, Y, Z, T;
};

struct Cached8
{
    Fe8 yPlusX, yMinusX, t2d, z2;
};

struct Niels8
{
    Fe8 yPlusX, yMinusX, t2d;
};

HAAC_IFMA_TARGET inline P8
identity8()
{
    return P8{small8(0), small8(1), small8(1), small8(0)};
}

HAAC_IFMA_TARGET inline P8
loadPoints8(const u64 lanes[4][5][8])
{
    return P8{load8(lanes[0]), load8(lanes[1]), load8(lanes[2]),
              load8(lanes[3])};
}

HAAC_IFMA_TARGET inline void
storePoints8(const P8 &p, u64 lanes[4][5][8])
{
    store8(p.X, lanes[0]);
    store8(p.Y, lanes[1]);
    store8(p.Z, lanes[2]);
    store8(p.T, lanes[3]);
}

HAAC_IFMA_TARGET inline Cached8
cached8(const P8 &p, const Fe8 &d2)
{
    return Cached8{add8(p.Y, p.X), sub8(p.Y, p.X), mul8(p.T, d2),
                   add8(p.Z, p.Z)};
}

HAAC_IFMA_TARGET inline Fe8
twoZ1Z2x8(const P8 &p, const Cached8 &q)
{
    return mul8(p.Z, q.z2);
}

HAAC_IFMA_TARGET inline Fe8
twoZ1Z2x8(const P8 &p, const Niels8 &)
{
    return add8(p.Z, p.Z);
}

/** PointOps::add() on eight lanes. */
template <typename Addend>
HAAC_IFMA_TARGET inline P8
addPoints8(const P8 &p, const Addend &q, bool with_t)
{
    const Fe8 a = mul8(sub8(p.Y, p.X), q.yMinusX); // A = (Y1-X1)(Y2-X2)
    const Fe8 b = mul8(add8(p.Y, p.X), q.yPlusX);  // B = (Y1+X1)(Y2+X2)
    const Fe8 c = mul8(p.T, q.t2d);                // C = 2d T1 T2
    const Fe8 d = twoZ1Z2x8(p, q);                 // D = 2 Z1 Z2
    const Fe8 e = sub8(b, a), f = sub8(d, c), g = add8(d, c),
              h = add8(b, a);
    return P8{mul8(e, f), mul8(g, h), mul8(f, g),
              with_t ? mul8(e, h) : small8(0)};
}

/** PointOps::dbl() on eight lanes. */
HAAC_IFMA_TARGET inline P8
dblPoints8(const P8 &p, bool with_t)
{
    const Fe8 a = sq8(p.X), b = sq8(p.Y);          // A = X1^2, B = Y1^2
    const Fe8 zz = sq8(p.Z);
    const Fe8 c = add8(zz, zz);                    // C = 2 Z1^2
    const Fe8 h = add8(a, b);                      // H = A + B
    const Fe8 e = sub8(h, sq8(add8(p.X, p.Y)));    // E = H - (X1+Y1)^2
    const Fe8 g = sub8(a, b);                      // G = A - B
    const Fe8 f = add8(c, g);                      // F = C + G
    return P8{mul8(e, f), mul8(g, h), mul8(f, g),
              with_t ? mul8(e, h) : small8(0)};
}

HAAC_IFMA_TARGET inline P8
times16x8(const P8 &p)
{
    return dblPoints8(
        dblPoints8(dblPoints8(dblPoints8(p, false), false), false), true);
}

/** Negate the addend (swap Y+X with Y-X, negate 2dT) where @p mask. */
template <typename Addend>
HAAC_IFMA_TARGET inline void
negateWhere(Addend &q, __m512i mask)
{
    const Fe8 plus = q.yPlusX;
    cmov8(q.yPlusX, q.yMinusX, mask);
    cmov8(q.yMinusX, plus, mask);
    cmov8(q.t2d, sub8(small8(0), q.t2d), mask);
}

/**
 * d * table[|d| - 1], negated when d < 0, for one digit @p d shared
 * by all lanes: every entry is blended in under a broadcast mask.
 */
HAAC_IFMA_TARGET inline Cached8
selectShared(const Cached8 table[8], int8_t d)
{
    const u64 neg = 0 - u64(uint8_t(d) >> 7);
    const u64 abs = u64((int64_t(d) ^ int64_t(neg)) - int64_t(neg));
    Cached8 out{small8(1), small8(1), small8(0), small8(2)};
    for (u64 j = 0; j < 8; ++j) {
        const __m512i hit = bcast(eqMask(abs, j + 1));
        cmov8(out.yPlusX, table[j].yPlusX, hit);
        cmov8(out.yMinusX, table[j].yMinusX, hit);
        cmov8(out.t2d, table[j].t2d, hit);
        cmov8(out.z2, table[j].z2, hit);
    }
    negateWhere(out, bcast(neg));
    return out;
}

/**
 * Lane l: d_l * row[|d_l| - 1], negated when d_l < 0, for the digits
 * @p d in [-8, 8]: every entry is blended in under a per-lane mask.
 */
HAAC_IFMA_TARGET inline Niels8
selectFixed(const PointOps::Niels row[8], __m512i d)
{
    const __m512i abs = _mm512_abs_epi64(d);
    const __m512i ones = bcast(~u64(0));
    Niels8 out{small8(1), small8(1), small8(0)};
    for (u64 j = 0; j < 8; ++j) {
        const __m512i hit = _mm512_maskz_mov_epi64(
            _mm512_cmpeq_epi64_mask(abs, bcast(j + 1)), ones);
        cmov8(out.yPlusX, constant8(row[j].yPlusX), hit);
        cmov8(out.yMinusX, constant8(row[j].yMinusX), hit);
        cmov8(out.t2d, constant8(row[j].t2d), hit);
    }
    negateWhere(out, _mm512_srai_epi64(d, 63));
    return out;
}

/** Digit position @p e of eight lanes' recoded scalars, sign-extended. */
HAAC_IFMA_TARGET inline __m512i
digits8(const int8_t e[8])
{
    return _mm512_cvtepi8_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(e)));
}

/**
 * lanes = k * lanes for one scalar k, given as its signed digits @p e
 * (Point::mul()'s window; @p d2 is 2d in radix 2^52).
 */
HAAC_IFMA_TARGET void
mulLanes(const int8_t e[65], const u64 d2[5], u64 lanes[4][5][8])
{
    const P8 p = loadPoints8(lanes);
    const Fe8 kd2 = constant8(d2);
    Cached8 table[8];
    table[0] = cached8(p, kd2);
    P8 multiple = p;
    for (int d = 1; d < 8; ++d) {
        multiple = addPoints8(multiple, table[0], true);
        table[d] = cached8(multiple, kd2);
    }
    P8 r = addPoints8(identity8(), selectShared(table, e[64]), false);
    for (int i = 63; i >= 0; --i)
        r = addPoints8(times16x8(r), selectShared(table, e[i]), i == 0);
    storePoints8(r, lanes);
}

/**
 * Lane l = k_l * P over a radix-2^52 comb @p table of @p rows rows
 * (FixedBase::mul()'s order), e[i][l] being digit i of k_l.
 */
HAAC_IFMA_TARGET void
fixedMulLanes(const PointOps::Niels table[], size_t rows,
              const int8_t e[65][8], u64 lanes[4][5][8])
{
    P8 r = identity8();
    // The last odd-digit sum feeds only doublings: no T.
    for (size_t j = 0; j + 1 < rows; ++j)
        r = addPoints8(r, selectFixed(&table[8 * j], digits8(e[2 * j + 1])),
                       j + 2 < rows);
    r = times16x8(r);
    for (size_t j = 0; j < rows; ++j)
        r = addPoints8(r, selectFixed(&table[8 * j], digits8(e[2 * j])),
                       true);
    storePoints8(r, lanes);
}

/** PointOps::rootCandidate() on eight lanes of u and v. */
HAAC_IFMA_TARGET void
rootCandidateLanes(const u64 u[5][8], const u64 v[5][8], u64 x[5][8])
{
    const Fe8 u8 = load8(u), v8 = load8(v);
    const Fe8 v3 = mul8(sq8(v8), v8);
    const Fe8 v7 = mul8(sq8(v3), v8);
    store8(mul8(mul8(u8, v3), pow22523x8(mul8(u8, v7))), x);
}

/** 2d in radix 2^52, for mulLanes(). */
const u64 *
d2Radix52()
{
    static const std::array<u64, 5> d2 = [] {
        std::array<u64, 5> r;
        toRadix52(r.data(), kD2);
        return r;
    }();
    return d2.data();
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

} // namespace

#endif // HAAC_USE_IFMA

Scalar
randomScalar(Prg &rng)
{
    Scalar s;
    const Label a = rng.nextLabel();
    const Label b = rng.nextLabel();
    a.toBytes(s.bytes);
    b.toBytes(s.bytes + 16);
    s.bytes[31] &= 0x7f; // < 2^255
    return s;
}

Point::Point()
{
    feZero(X_.v);
    feOne(Y_.v);
    feOne(Z_.v);
    feZero(T_.v);
}

const Point &
Point::base()
{
    static const Point b = [] {
        Point p;
        feCopy(p.X_.v, kBaseX);
        feCopy(p.Y_.v, kBaseY);
        feOne(p.Z_.v);
        feCopy(p.T_.v, kBaseT);
        return p;
    }();
    return b;
}

Point
Point::add(const Point &o) const
{
    return PointOps::add(*this, PointOps::cached(o));
}

Point
Point::sub(const Point &o) const
{
    Point neg = o;
    feNeg(neg.X_.v, o.X_.v);
    feNeg(neg.T_.v, o.T_.v);
    return add(neg);
}

Point
Point::dbl() const
{
    return PointOps::dbl(*this, true);
}

Point
Point::mul(const Scalar &k, const Point &p)
{
    int8_t e[65];
    recodeSigned16(k, e);
    PointOps::Cached table[8];
    table[0] = PointOps::cached(p);
    Point multiple = p;
    for (int d = 1; d < 8; ++d) {
        multiple = PointOps::add(multiple, table[0]);
        table[d] = PointOps::cached(multiple);
    }
    // Every sum but the last feeds a doubling, which never reads T.
    Point r =
        PointOps::add(Point(), PointOps::select(table, e[64]), false);
    for (int i = 63; i >= 0; --i)
        r = PointOps::add(PointOps::times16(r),
                          PointOps::select(table, e[i]), i == 0);
    return r;
}

void
Point::mulMany(const Scalar &k, const Point in[], Point out[], size_t n)
{
#if defined(HAAC_USE_IFMA)
    if (cpu::has(cpu::kIfma)) {
        int8_t e[65];
        recodeSigned16(k, e);
        for (size_t lo = 0; lo < n; lo += 8) {
            const size_t m = std::min<size_t>(8, n - lo);
            alignas(64) u64 lanes[4][5][8];
            PointOps::toLanes(in + lo, m, lanes);
            mulLanes(e, d2Radix52(), lanes);
            PointOps::fromLanes(lanes, m, out + lo);
        }
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        out[i] = mul(k, in[i]);
}

Point
Point::mulBase(const Scalar &k)
{
    return FixedBase::base().mul(k);
}

Point
Point::select(const Point &a, const Point &b, bool pick_b)
{
    return PointOps::cmov(a, b, 0 - u64(pick_b));
}

void
Point::toBytesBatch(const Point points[], size_t n, uint8_t out[])
{
    FeVector x, y;
    PointOps::affine(points, n, x, y);
    for (size_t i = 0; i < n; ++i) {
        uint8_t *o = out + i * kPointBytes;
        feToBytes(o, y[i].data());
        o[31] |= uint8_t(uint8_t(feIsNegative(x[i].data())) << 7);
    }
}

FixedBase::FixedBase(const Point &p) : table_(kRows * 8)
{
    // Row j holds d * 256^j * P for d = 1..8, built in extended
    // coordinates and then made affine with one batched inversion.
    std::vector<Point> pts(kRows * 8);
    Point row_base = p;
    for (size_t j = 0; j < kRows; ++j) {
        const PointOps::Cached base = PointOps::cached(row_base);
        pts[8 * j] = row_base;
        for (size_t d = 1; d < 8; ++d)
            pts[8 * j + d] = PointOps::add(pts[8 * j + d - 1], base);
        // 256 * B = 32 * (8 * B): five doublings from the last entry.
        row_base = pts[8 * j + 7];
        for (int i = 0; i < 5; ++i)
            row_base = PointOps::dbl(row_base, i == 4);
    }
    FeVector x, y;
    PointOps::affine(pts.data(), pts.size(), x, y);
    for (size_t i = 0; i < pts.size(); ++i) {
        Entry &e = table_[i];
        feAdd(e.yPlusX, y[i].data(), x[i].data());
        feCarry(e.yPlusX);
        feSub(e.yMinusX, y[i].data(), x[i].data());
        feCarry(e.yMinusX);
        feMul(e.t2d, x[i].data(), y[i].data());
        feMul(e.t2d, e.t2d, kD2);
    }
#if defined(HAAC_USE_IFMA)
    table52_.resize(table_.size());
    for (size_t i = 0; i < table_.size(); ++i) {
        toRadix52(table52_[i].yPlusX, table_[i].yPlusX);
        toRadix52(table52_[i].yMinusX, table_[i].yMinusX);
        toRadix52(table52_[i].t2d, table_[i].t2d);
    }
#endif
}

const FixedBase &
FixedBase::base()
{
    static const FixedBase table(Point::base());
    return table;
}

Point
FixedBase::mul(const Scalar &k) const
{
    // k*P = sum_j e[2j] * 256^j P + 16 * sum_j e[2j+1] * 256^j P:
    // the odd digits first, one x16, then the even digits on top.
    int8_t e[65];
    recodeSigned16(k, e);
    Point r;
    for (size_t j = 0; j < kRows - 1; ++j)
        r = PointOps::add(r, PointOps::select(&table_[8 * j], e[2 * j + 1]));
    r = PointOps::times16(r);
    for (size_t j = 0; j < kRows; ++j)
        r = PointOps::add(r, PointOps::select(&table_[8 * j], e[2 * j]));
    return r;
}

void
FixedBase::mulMany(const Scalar k[], Point out[], size_t n) const
{
#if defined(HAAC_USE_IFMA)
    if (cpu::has(cpu::kIfma)) {
        for (size_t lo = 0; lo < n; lo += 8) {
            const size_t m = std::min<size_t>(8, n - lo);
            alignas(8) int8_t e[65][8] = {}; // idle lanes: k = 0
            for (size_t l = 0; l < m; ++l) {
                int8_t digits[65];
                recodeSigned16(k[lo + l], digits);
                for (int i = 0; i < 65; ++i)
                    e[i][l] = digits[i];
            }
            alignas(64) u64 lanes[4][5][8];
            fixedMulLanes(table52_.data(), kRows, e, lanes);
            PointOps::fromLanes(lanes, m, out + lo);
        }
        return;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        out[i] = mul(k[i]);
}

size_t
Point::fromBytesBatch(const uint8_t in[], size_t n, Point out[])
{
#if defined(HAAC_USE_IFMA)
    if (cpu::has(cpu::kIfma)) {
        for (size_t lo = 0; lo < n; lo += 8) {
            const size_t m = std::min<size_t>(8, n - lo);
            u64 y[8][5], u51[8][5], v51[8][5];
            alignas(64) u64 u[5][8] = {}, v[5][8] = {}, x[5][8];
            for (size_t l = 0; l < m; ++l) {
                PointOps::decodeStart(in + (lo + l) * kPointBytes, y[l],
                                      u51[l], v51[l]);
                setLane(u, l, u51[l]);
                setLane(v, l, v51[l]);
            }
            rootCandidateLanes(u, v, x);
            for (size_t l = 0; l < m; ++l) {
                u64 root[5];
                getLane(root, x, l);
                if (!PointOps::decodeFinish(in + (lo + l) * kPointBytes,
                                            y[l], u51[l], v51[l], root,
                                            out[lo + l]))
                    return lo + l;
            }
        }
        return n;
    }
#endif
    for (size_t i = 0; i < n; ++i)
        if (!fromBytes(in + i * kPointBytes, out[i]))
            return i;
    return n;
}

void
Point::toBytes(uint8_t out[kPointBytes]) const
{
    u64 zinv[5], x[5], y[5];
    feInvert(zinv, Z_.v);
    feMul(x, X_.v, zinv);
    feMul(y, Y_.v, zinv);
    feToBytes(out, y);
    out[31] |= uint8_t(uint8_t(feIsNegative(x)) << 7);
}

bool
Point::fromBytes(const uint8_t in[kPointBytes], Point &out)
{
    u64 y[5], u[5], v[5], x[5];
    PointOps::decodeStart(in, y, u, v);
    PointOps::rootCandidate(x, u, v);
    return PointOps::decodeFinish(in, y, u, v, x, out);
}

bool
Point::equals(const Point &o) const
{
    uint8_t a[kPointBytes], b[kPointBytes];
    toBytes(a);
    o.toBytes(b);
    return std::memcmp(a, b, kPointBytes) == 0;
}

bool
Point::isIdentity() const
{
    return equals(Point());
}

} // namespace ec
} // namespace haac
