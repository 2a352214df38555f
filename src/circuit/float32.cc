#include "circuit/float32.h"

#include <cassert>
#include <cstring>

#include "circuit/stdlib.h"

namespace haac {

// ---------------------------------------------------------------------
// Host model
// ---------------------------------------------------------------------

namespace {

inline uint32_t
pack(uint32_t s, uint32_t e, uint32_t m)
{
    return (s << 31) | ((e & 0xff) << 23) | (m & 0x7fffff);
}

inline uint32_t signOf(uint32_t x) { return x >> 31; }
inline uint32_t expOf(uint32_t x) { return (x >> 23) & 0xff; }
inline uint32_t manOf(uint32_t x) { return x & 0x7fffff; }

inline int
msbIndex(uint64_t v)
{
    assert(v != 0);
    int i = 63;
    while (((v >> i) & 1) == 0)
        --i;
    return i;
}

} // namespace

uint32_t
sfMul(uint32_t a, uint32_t b)
{
    const uint32_t s = signOf(a) ^ signOf(b);
    const uint32_t ea = expOf(a), eb = expOf(b);
    if (ea == 0 || eb == 0)
        return pack(s, 0, 0);
    const uint64_t P = uint64_t(0x800000 | manOf(a)) *
                       uint64_t(0x800000 | manOf(b));
    const int norm = int((P >> 47) & 1);
    const uint32_t frac =
        norm ? uint32_t(P >> 24) & 0x7fffff : uint32_t(P >> 23) & 0x7fffff;
    const int e_raw = int(ea) + int(eb) - 127 + norm;
    if (e_raw <= 0)
        return pack(s, 0, 0);
    if (e_raw >= 255)
        return pack(s, 254, 0x7fffff);
    return pack(s, uint32_t(e_raw), frac);
}

uint32_t
sfAdd(uint32_t a, uint32_t b)
{
    const uint32_t ea = expOf(a), eb = expOf(b);
    const bool a_zero = ea == 0, b_zero = eb == 0;
    if (a_zero)
        return b_zero ? pack(signOf(b), 0, 0) : b;
    if (b_zero)
        return a;

    const uint32_t mag_a = (ea << 23) | manOf(a);
    const uint32_t mag_b = (eb << 23) | manOf(b);
    const bool swap = mag_a < mag_b;
    const uint32_t x = swap ? b : a, y = swap ? a : b;
    const uint32_t sx = signOf(x);
    const uint32_t ex = expOf(x), ey = expOf(y);
    const uint32_t d = ex - ey;

    const uint64_t mx = uint64_t(0x800000 | manOf(x)) << 3; // 27 bits
    const uint64_t my_full = uint64_t(0x800000 | manOf(y)) << 3;
    const uint64_t my = d >= 27 ? 0 : my_full >> d;
    const bool subtract = signOf(a) != signOf(b);

    const uint64_t v = subtract ? mx - my : mx + my; // fits 28 bits
    if (v == 0)
        return pack(0, 0, 0);
    const int lz = 27 - msbIndex(v);
    const uint64_t vn = v << lz; // bit 27 set
    const uint32_t frac = uint32_t(vn >> 4) & 0x7fffff;
    const int e_raw = int(ex) + 1 - lz;
    if (e_raw <= 0)
        return pack(sx, 0, 0);
    if (e_raw >= 255)
        return pack(sx, 254, 0x7fffff);
    return pack(sx, uint32_t(e_raw), frac);
}

uint32_t
sfSub(uint32_t a, uint32_t b)
{
    return sfAdd(a, b ^ 0x80000000u);
}

uint32_t
floatToBits(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

float
bitsFromFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
}

// ---------------------------------------------------------------------
// Circuit model (mirrors the host algorithm step for step)
// ---------------------------------------------------------------------

namespace {

/** bits[lo, lo+n). */
Bits
slice(const Bits &bits, uint32_t lo, uint32_t n)
{
    assert(lo + n <= bits.size());
    return Bits(bits.begin() + lo, bits.begin() + lo + n);
}

Bits
concat(const Bits &low, const Bits &high)
{
    Bits out = low;
    out.insert(out.end(), high.begin(), high.end());
    return out;
}

struct FloatParts
{
    Wire sign;
    Bits exp;  // 8 bits
    Bits man;  // 23 bits
};

FloatParts
unpack(const Bits &f)
{
    assert(f.size() == 32);
    return {f[31], slice(f, 23, 8), slice(f, 0, 23)};
}

Bits
packCircuit(CircuitBuilder &cb, Wire sign, const Bits &exp, const Bits &man)
{
    (void)cb;
    assert(exp.size() == 8 && man.size() == 23);
    Bits out = man;
    out.insert(out.end(), exp.begin(), exp.end());
    out.push_back(sign);
    return out;
}

Wire
isZeroFloat(CircuitBuilder &cb, const FloatParts &p)
{
    return cb.notGate(reduceOr(cb, p.exp));
}

/** (sign, 0, 0) with the given sign wire. */
Bits
zeroFloat(CircuitBuilder &cb, Wire sign)
{
    Bits z(31, cb.constant(false));
    z.push_back(sign);
    return z;
}

/**
 * Shared exponent-range epilogue: apply saturate-on-overflow then
 * flush-on-underflow to (sign, e_raw, frac).
 *
 * @param e_raw signed 10-bit candidate exponent.
 */
Bits
clampAndPack(CircuitBuilder &cb, Wire sign, const Bits &e_raw,
             const Bits &frac)
{
    assert(e_raw.size() == 10 && frac.size() == 23);
    Wire negative = e_raw[9];
    Wire e_is_zero = cb.notGate(reduceOr(cb, e_raw));
    Wire underflow = cb.orGate(negative, e_is_zero);
    Wire overflow = ltUnsigned(cb, constantBits(cb, 10, 254), e_raw);

    Bits e = slice(e_raw, 0, 8);
    Bits m = frac;
    // Overflow saturates; underflow (applied after) wins over it
    // because a negative e_raw also looks large unsigned.
    e = muxBits(cb, overflow, constantBits(cb, 8, 254), e);
    m = muxBits(cb, overflow, constantBits(cb, 23, 0x7fffff), m);
    Bits result = packCircuit(cb, sign, e, m);
    return muxBits(cb, underflow, zeroFloat(cb, sign), result);
}

} // namespace

Bits
floatMulCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    FloatParts pa = unpack(a), pb = unpack(b);
    Wire s = cb.xorGate(pa.sign, pb.sign);
    Wire any_zero = cb.orGate(isZeroFloat(cb, pa), isZeroFloat(cb, pb));

    Bits ma = pa.man, mb = pb.man;
    ma.push_back(cb.constant(true)); // implicit leading 1 -> 24 bits
    mb.push_back(cb.constant(true));
    Bits p = mulBits(cb, ma, mb, 48);

    Wire norm = p[47];
    Bits frac = muxBits(cb, norm, slice(p, 24, 23), slice(p, 23, 23));

    // e_raw = ea + eb - 127 + norm, in 10-bit two's complement.
    Bits ea = zeroExtend(cb, pa.exp, 10);
    Bits eb = zeroExtend(cb, pb.exp, 10);
    Bits e_raw = addBits(cb, ea, eb);
    e_raw = subBits(cb, e_raw, constantBits(cb, 10, 127));
    Bits norm_w = zeroExtend(cb, Bits{norm}, 10);
    e_raw = addBits(cb, e_raw, norm_w);

    Bits result = clampAndPack(cb, s, e_raw, frac);
    return muxBits(cb, any_zero, zeroFloat(cb, s), result);
}

Bits
floatAddCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    FloatParts pa = unpack(a), pb = unpack(b);
    Wire a_zero = isZeroFloat(cb, pa);
    Wire b_zero = isZeroFloat(cb, pb);

    // Magnitude order (exp:man as a 31-bit unsigned word).
    Bits mag_a = concat(pa.man, pa.exp);
    Bits mag_b = concat(pb.man, pb.exp);
    Wire swap = ltUnsigned(cb, mag_a, mag_b);

    Wire sx = cb.mux(swap, pb.sign, pa.sign);
    Bits ex = muxBits(cb, swap, pb.exp, pa.exp);
    Bits ey = muxBits(cb, swap, pa.exp, pb.exp);
    Bits mx = muxBits(cb, swap, pb.man, pa.man);
    Bits my = muxBits(cb, swap, pa.man, pb.man);

    Bits d = subBits(cb, ex, ey); // >= 0 by construction

    // 28-bit significands with 3 guard bits: (1.m) << 3.
    auto extend = [&](const Bits &man) {
        Bits sig(3, cb.constant(false));
        sig.insert(sig.end(), man.begin(), man.end());
        sig.push_back(cb.constant(true)); // implicit 1 at bit 26
        sig.push_back(cb.constant(false)); // bit 27 headroom
        return sig;
    };
    Bits mx_e = extend(mx);
    Bits my_e = shrVar(cb, extend(my), d);

    // v = subtract ? mx - my : mx + my via conditional negate.
    Wire subtract = cb.xorGate(pa.sign, pb.sign);
    Bits my_c(my_e.size());
    for (size_t i = 0; i < my_e.size(); ++i)
        my_c[i] = cb.xorGate(my_e[i], subtract);
    Bits v = addWithCarry(cb, mx_e, my_c, subtract).sum;

    Wire v_zero = cb.notGate(reduceOr(cb, v));

    // Normalize: shift left until bit 27 is set, counting the shift.
    Bits lz(5, cb.constant(false));
    for (int stage = 4; stage >= 0; --stage) {
        uint32_t s = 1u << stage;
        Bits top = slice(v, uint32_t(v.size()) - s, s);
        Wire all_zero = cb.notGate(reduceOr(cb, top));
        v = muxBits(cb, all_zero, shlConst(cb, v, s), v);
        lz[stage] = all_zero;
    }
    Bits frac = slice(v, 4, 23);

    // e_raw = ex + 1 - lz (10-bit signed).
    Bits e_raw = zeroExtend(cb, ex, 10);
    e_raw = addBits(cb, e_raw, constantBits(cb, 10, 1));
    e_raw = subBits(cb, e_raw, zeroExtend(cb, lz, 10));

    Bits computed = clampAndPack(cb, sx, e_raw, frac);
    computed = muxBits(cb, v_zero, zeroFloat(cb, cb.constant(false)),
                       computed);

    // Zero-operand bypass, mirroring the host model's early returns.
    Bits flushed_b = muxBits(cb, b_zero, zeroFloat(cb, pb.sign), b);
    Bits inner = muxBits(cb, b_zero, a, computed);
    return muxBits(cb, a_zero, flushed_b, inner);
}

Bits
floatSubCircuit(CircuitBuilder &cb, const Bits &a, const Bits &b)
{
    Bits negb = b;
    negb[31] = cb.notGate(b[31]);
    return floatAddCircuit(cb, a, negb);
}

} // namespace haac
