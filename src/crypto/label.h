/**
 * @file
 * 128-bit wire labels, the fundamental GC data type.
 *
 * A wire's value under garbling is one of two 128-bit labels; the label
 * for logical 1 is the label for logical 0 XORed with the global FreeXOR
 * offset R (whose least-significant bit is always 1, so lsb(label) acts
 * as the point-and-permute select bit).
 */
#ifndef HAAC_CRYPTO_LABEL_H
#define HAAC_CRYPTO_LABEL_H

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

namespace haac {

/** A 128-bit block: wire label, ciphertext, or AES state. */
struct Label
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    constexpr Label() = default;
    constexpr Label(uint64_t lo_, uint64_t hi_) : lo(lo_), hi(hi_) {}

    /** Point-and-permute select bit. */
    constexpr bool lsb() const { return (lo & 1u) != 0; }

    /** Force the select bit to @p b, leaving other bits untouched. */
    constexpr void
    setLsb(bool b)
    {
        lo = (lo & ~uint64_t(1)) | uint64_t(b ? 1 : 0);
    }

    constexpr bool isZero() const { return lo == 0 && hi == 0; }

    friend constexpr Label
    operator^(const Label &a, const Label &b)
    {
        return Label(a.lo ^ b.lo, a.hi ^ b.hi);
    }

    constexpr Label &
    operator^=(const Label &o)
    {
        lo ^= o.lo;
        hi ^= o.hi;
        return *this;
    }

    friend constexpr bool
    operator==(const Label &a, const Label &b)
    {
        return a.lo == b.lo && a.hi == b.hi;
    }

    friend constexpr bool
    operator!=(const Label &a, const Label &b)
    {
        return !(a == b);
    }

    /** Serialize little-endian (lo first) into 16 bytes. */
    void
    toBytes(uint8_t out[16]) const
    {
        std::memcpy(out, &lo, 8);
        std::memcpy(out + 8, &hi, 8);
    }

    static Label
    fromBytes(const uint8_t in[16])
    {
        Label l;
        std::memcpy(&l.lo, in, 8);
        std::memcpy(&l.hi, in + 8, 8);
        return l;
    }

    /** Hex string (32 nibbles, hi first) for debugging and goldens. */
    std::string
    toHex() const
    {
        static const char digits[] = "0123456789abcdef";
        std::string s(32, '0');
        for (int i = 0; i < 16; ++i) {
            uint64_t word = i < 8 ? hi : lo;
            int shift = 56 - 8 * (i % 8);
            uint8_t byte = uint8_t(word >> shift);
            s[2 * i] = digits[byte >> 4];
            s[2 * i + 1] = digits[byte & 0xf];
        }
        return s;
    }
};

/**
 * @p l when @p bit is set, else zero, through a mask rather than a
 * branch: the half-gate kernels select on permute bits, which are
 * secret on the garbler's side.
 */
constexpr Label
selectLabel(bool bit, const Label &l)
{
    const uint64_t mask = 0 - uint64_t(bit);
    return Label(l.lo & mask, l.hi & mask);
}

/** Bytes in one wire label; drives SWW sizing and traffic accounting. */
inline constexpr size_t kLabelBytes = 16;

/** Bytes per garbled AND table: two ciphertexts (the paper's 32 B). */
inline constexpr size_t kTableBytes = 2 * kLabelBytes;

/** A Half-Gate garbled table: generator-half and evaluator-half rows. */
struct GarbledTable
{
    Label tg;
    Label te;

    friend constexpr bool
    operator==(const GarbledTable &a, const GarbledTable &b)
    {
        return a.tg == b.tg && a.te == b.te;
    }
};

} // namespace haac

#endif // HAAC_CRYPTO_LABEL_H
