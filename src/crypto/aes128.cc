#include "crypto/aes128.h"

#include <cstring>
#include <stdexcept>

#if defined(HAAC_USE_AESNI)
#include <tmmintrin.h>
#include <wmmintrin.h>
#endif

namespace haac {

namespace {

/** The AES S-box (FIPS-197 Fig. 7). */
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

/** Round constants for the key schedule. */
constexpr uint8_t kRcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

/** Multiply by x in GF(2^8) mod x^8+x^4+x^3+x+1. */
inline uint8_t
xtime(uint8_t a)
{
    return uint8_t((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

inline void
subBytes(uint8_t s[16])
{
    for (int i = 0; i < 16; ++i)
        s[i] = kSbox[s[i]];
}

/** State is column-major: s[4*c + r] is row r of column c. */
inline void
shiftRows(uint8_t s[16])
{
    uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1];
    s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: rotate left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate left by 3 (== right by 1).
    t = s[15];
    s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

inline void
mixColumns(uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        uint8_t *col = s + 4 * c;
        uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        uint8_t all = uint8_t(a0 ^ a1 ^ a2 ^ a3);
        col[0] = uint8_t(a0 ^ all ^ xtime(uint8_t(a0 ^ a1)));
        col[1] = uint8_t(a1 ^ all ^ xtime(uint8_t(a1 ^ a2)));
        col[2] = uint8_t(a2 ^ all ^ xtime(uint8_t(a2 ^ a3)));
        col[3] = uint8_t(a3 ^ all ^ xtime(uint8_t(a3 ^ a0)));
    }
}

inline void
addRoundKey(uint8_t s[16], const uint8_t rk[16])
{
    for (int i = 0; i < 16; ++i)
        s[i] ^= rk[i];
}

#if defined(HAAC_USE_AESNI)
/**
 * This file is compiled with -maes -mssse3, but the binary may land on
 * an x86 CPU without those extensions: every AES-NI path dispatches on
 * CPUID, probed once per process.
 */
bool
haveAesni()
{
    static const bool have = __builtin_cpu_supports("aes") &&
                             __builtin_cpu_supports("ssse3");
    return have;
}

// A Label's {lo, hi} layout on a little-endian x86 is its toBytes()
// serialization, so labels load straight into AES state registers.
static_assert(sizeof(Label) == 16, "Label must be one 128-bit block");

inline __m128i
loadLabel(const Label &l)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(&l));
}

inline void
storeLabel(Label &l, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(&l), v);
}

/**
 * Round key @p round + 1 from round key @p round (Gueron's form, no
 * AESKEYGENASSIST): PSHUFB copies RotWord(w3) into all four columns,
 * so AESENCLAST's ShiftRows is the identity and it yields
 * SubWord(RotWord(w3)) ^ Rcon in every column; two shift-XORs turn
 * (w0, w1, w2, w3) into their running XOR, which that value completes.
 */
inline __m128i
expandRound(__m128i key, int round)
{
    const __m128i rot =
        _mm_shuffle_epi8(key, _mm_set1_epi32(0x0c0f0e0d));
    const __m128i sub =
        _mm_aesenclast_si128(rot, _mm_set1_epi32(kRcon[round]));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
    key = _mm_xor_si128(key, _mm_slli_si128(key, 8));
    return _mm_xor_si128(key, sub);
}

/** aesMmoPair() for a fixed n: both schedules live only in registers. */
template <int N>
void
aesMmoPairAesni(const Label &key0, const Label &key1, const Label x0[],
                Label y0[], const Label x1[], Label y1[])
{
    __m128i k0 = loadLabel(key0), k1 = loadLabel(key1);
    __m128i in0[N], in1[N], s0[N], s1[N];
    for (int i = 0; i < N; ++i) {
        in0[i] = loadLabel(x0[i]);
        in1[i] = loadLabel(x1[i]);
        s0[i] = _mm_xor_si128(in0[i], k0);
        s1[i] = _mm_xor_si128(in1[i], k1);
    }
    for (int round = 0; round < kAesRounds - 1; ++round) {
        k0 = expandRound(k0, round);
        k1 = expandRound(k1, round);
        for (int i = 0; i < N; ++i) {
            s0[i] = _mm_aesenc_si128(s0[i], k0);
            s1[i] = _mm_aesenc_si128(s1[i], k1);
        }
    }
    k0 = expandRound(k0, kAesRounds - 1);
    k1 = expandRound(k1, kAesRounds - 1);
    for (int i = 0; i < N; ++i) {
        storeLabel(y0[i],
                   _mm_xor_si128(_mm_aesenclast_si128(s0[i], k0), in0[i]));
        storeLabel(y1[i],
                   _mm_xor_si128(_mm_aesenclast_si128(s1[i], k1), in1[i]));
    }
}
#endif

} // namespace

Aes128::Aes128(const uint8_t key[16])
{
    expandKey(key);
}

Aes128::Aes128(const Label &key)
{
    uint8_t bytes[16];
    key.toBytes(bytes);
    expandKey(bytes);
}

void
Aes128::expandKey(const uint8_t key[16])
{
#if defined(HAAC_USE_AESNI)
    if (haveAesni()) {
        auto *rk = reinterpret_cast<__m128i *>(roundKeys_.data());
        __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i *>(key));
        _mm_storeu_si128(rk, k);
        for (int round = 0; round < kAesRounds; ++round) {
            k = expandRound(k, round);
            _mm_storeu_si128(rk + round + 1, k);
        }
        return;
    }
#endif
    std::memcpy(roundKeys_.data(), key, 16);
    for (int i = 4; i < 4 * (kAesRounds + 1); ++i) {
        uint8_t temp[4];
        std::memcpy(temp, &roundKeys_[4 * (i - 1)], 4);
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            uint8_t t0 = temp[0];
            temp[0] = uint8_t(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
            temp[1] = kSbox[temp[2]];
            temp[2] = kSbox[temp[3]];
            temp[3] = kSbox[t0];
        }
        for (int b = 0; b < 4; ++b)
            roundKeys_[4 * i + b] = uint8_t(roundKeys_[4 * (i - 4) + b] ^
                                            temp[b]);
    }
}

void
Aes128::encryptBlock(const uint8_t in[16], uint8_t out[16]) const
{
#if defined(HAAC_USE_AESNI)
    if (haveAesni()) {
        // The 176-byte schedule is stored in FIPS-197 byte order, which
        // is exactly what AESENC expects from an unaligned load.
        __m128i state =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in));
        state = _mm_xor_si128(
            state, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                       roundKeys_.data())));
        for (int round = 1; round < kAesRounds; ++round)
            state = _mm_aesenc_si128(
                state, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                           roundKeys_.data() + 16 * round)));
        state = _mm_aesenclast_si128(
            state, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                       roundKeys_.data() + 16 * kAesRounds)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out), state);
        return;
    }
#endif
    uint8_t s[16];
    std::memcpy(s, in, 16);
    addRoundKey(s, roundKeys_.data());
    for (int round = 1; round < kAesRounds; ++round) {
        subBytes(s);
        shiftRows(s);
        mixColumns(s);
        addRoundKey(s, roundKeys_.data() + 16 * round);
    }
    subBytes(s);
    shiftRows(s);
    addRoundKey(s, roundKeys_.data() + 16 * kAesRounds);
    std::memcpy(out, s, 16);
}

Label
Aes128::encryptBlock(const Label &in) const
{
    uint8_t buf[16];
    in.toBytes(buf);
    encryptBlock(buf, buf);
    return Label::fromBytes(buf);
}

void
aesMmoPair(const Label &key0, const Label &key1, const Label x0[],
           Label y0[], const Label x1[], Label y1[], int n)
{
    if (n != 1 && n != 2)
        throw std::invalid_argument("aesMmoPair: n must be 1 or 2");
#if defined(HAAC_USE_AESNI)
    if (haveAesni()) {
        if (n == 2)
            aesMmoPairAesni<2>(key0, key1, x0, y0, x1, y1);
        else
            aesMmoPairAesni<1>(key0, key1, x0, y0, x1, y1);
        return;
    }
#endif
    const Aes128 aes0(key0), aes1(key1);
    for (int i = 0; i < n; ++i) {
        const Label a = x0[i], b = x1[i];
        y0[i] = aes0.encryptBlock(a) ^ a;
        y1[i] = aes1.encryptBlock(b) ^ b;
    }
}

} // namespace haac
