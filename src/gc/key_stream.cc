#include "gc/key_stream.h"

#include <stdexcept>

#include "crypto/hash.h"
#include "gc/gate_walk.h"

#if defined(HAAC_USE_VAES)
#include <immintrin.h>
#endif

namespace haac {

#if defined(HAAC_USE_VAES)

/**
 * The ISA of every function below that touches a 256- or 512-bit
 * register. Only those functions are compiled for it, and they are
 * reached only through a TweakKeyStream, whose constructor checks
 * CPUID; everything else in this file (including any out-of-line copy
 * of a header inline it calls) stays on the baseline ISA.
 */
#define HAAC_VAES_TARGET __attribute__((target("vaes,avx512f,avx512bw")))
/**
 * The two walks also flatten: the per-AND lambda they hand to
 * walkGates() is VAES code, which GCC will not inline into the
 * baseline-ISA template instance, only into the walk that inlines it.
 */
#define HAAC_VAES_WALK                                                       \
    __attribute__((target("vaes,avx512f,avx512bw"), flatten))

bool
haveTweakKeyStream()
{
    static const bool have = __builtin_cpu_supports("vaes") &&
                             __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512bw");
    return have;
}

// A Label's {lo, hi} layout on little-endian x86 is its toBytes()
// serialization, and a GarbledTable is {tg, te} back to back.
static_assert(sizeof(Label) == 16, "Label must be one 128-bit block");
static_assert(sizeof(GarbledTable) == 32, "GarbledTable must be 32 B");

/**
 * The VAES code: the key expansion, the per-gate kernels and the two
 * walks, which inline the ring (hence TweakKeyStream's friend).
 */
struct KeyedKernels
{
#if defined(__GNUC__) && !defined(__clang__)
// GCC 12's AVX-512 headers seed their "undefined" registers from
// themselves, which -Wuninitialized reports at every inlined 512-bit
// cast, insert, extract and broadcast: a known false positive, silenced
// for the intrinsic kernels from here to evaluate() only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

    HAAC_VAES_TARGET static __m128i
    load(const Label &l)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(&l));
    }

    HAAC_VAES_TARGET static void
    store(Label &l, __m128i v)
    {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(&l), v);
    }

    /** All ones in each 128-bit lane whose label has its lsb set. */
    HAAC_VAES_TARGET static __m128i
    lsbMask(__m128i x)
    {
        return _mm_shuffle_epi32(_mm_srai_epi32(_mm_slli_epi32(x, 31), 31),
                                 0);
    }

    HAAC_VAES_TARGET static __m256i
    lsbMask(__m256i x)
    {
        return _mm256_shuffle_epi32(
            _mm256_srai_epi32(_mm256_slli_epi32(x, 31), 31), 0);
    }

    /**
     * The next round key of four schedules at once: aes128.cc's
     * expandRound (Gueron's PSHUFB + AESENCLAST form), lane by lane.
     */
    HAAC_VAES_TARGET static __m512i
    expandRound(__m512i key, int round)
    {
        const __m512i rot =
            _mm512_shuffle_epi8(key, _mm512_set1_epi32(0x0c0f0e0d));
        const __m512i sub = _mm512_aesenclast_epi128(
            rot, _mm512_set1_epi32(kAesRcon[round]));
        key = _mm512_xor_si512(key, _mm512_bslli_epi128(key, 4));
        key = _mm512_xor_si512(key, _mm512_bslli_epi128(key, 8));
        return _mm512_xor_si512(key, sub);
    }

    /**
     * The 16 schedules of ANDs @p first .. @p first + 7, four per
     * register: register q holds tweakKey(2 * first + 4q + l) in lane
     * l, which is ANDs 2q and 2q + 1, so each round stores it whole.
     */
    HAAC_VAES_TARGET static void
    expand(uint64_t first, TweakKeyBlock &out)
    {
        constexpr int kRegs = kKeyBlockAnds / 2;
        const auto d = static_cast<long long>(kTweakKeyDomain);
        const __m512i domain = _mm512_set_epi64(d, 0, d, 0, d, 0, d, 0);
        const __m512i tweaks =
            _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(
                                 2 * first)),
                             _mm512_set_epi64(3, 3, 2, 2, 1, 1, 0, 0));
        __m512i k[kRegs];
        for (int q = 0; q < kRegs; ++q) {
            k[q] = _mm512_xor_si512(
                _mm512_add_epi64(tweaks, _mm512_set1_epi64(4 * q)), domain);
            _mm512_store_si512(out.bytes[0][2 * q], k[q]);
        }
        for (int round = 0; round < kAesRounds; ++round) {
            for (int q = 0; q < kRegs; ++q) {
                k[q] = expandRound(k[q], round);
                _mm512_store_si512(out.bytes[round + 1][2 * q], k[q]);
            }
        }
    }

    /**
     * The block holding the next AND's keys, and its @p lane there. At
     * a block's first AND the other block is refilled with the keys
     * that follow, so the expansion overlaps this block's hashing.
     */
    HAAC_VAES_TARGET static const TweakKeyBlock &
    advance(TweakKeyStream &ks, int &lane)
    {
        const uint64_t pos = ks.next_++ - ks.first_;
        lane = int(pos % kKeyBlockAnds);
        const size_t cur = (pos / kKeyBlockAnds) & 1;
        if (lane == 0)
            expand(ks.first_ + pos + kKeyBlockAnds, ks.blocks_[cur ^ 1]);
        return ks.blocks_[cur];
    }

    /** Round key pair (k(2i), k(2i+1)) of @p lane. */
    HAAC_VAES_TARGET static __m256i
    keyPair(const TweakKeyBlock &kb, int round, int lane)
    {
        return _mm256_load_si256(
            reinterpret_cast<const __m256i *>(kb.bytes[round][lane]));
    }

    /**
     * garbleAnd() with stored schedules. The four hash inputs
     * [a0, b0, a0^R, b0^R] are assembled in registers (a store and a
     * 512-bit reload would stall on store forwarding) and go through
     * one VAES chain with the key pair in both halves; the
     * point-and-permute selects are masks.
     */
    HAAC_VAES_TARGET static void
    garble(const TweakKeyBlock &kb, int lane, const Label &a0,
           const Label &b0, const Label &r, GarbledTable &table,
           Label &out_zero)
    {
        const __m128i a = load(a0), b = load(b0), rr = load(r);
        const __m256i ab =
            _mm256_inserti128_si256(_mm256_castsi128_si256(a), b, 1);
        const __m512i x = _mm512_inserti64x4(
            _mm512_castsi256_si512(ab),
            _mm256_xor_si256(ab, _mm256_broadcastsi128_si256(rr)), 1);
        __m512i s = _mm512_xor_si512(
            x, _mm512_broadcast_i64x4(keyPair(kb, 0, lane)));
        for (int round = 1; round < kAesRounds; ++round)
            s = _mm512_aesenc_epi128(
                s, _mm512_broadcast_i64x4(keyPair(kb, round, lane)));
        s = _mm512_aesenclast_epi128(
            s, _mm512_broadcast_i64x4(keyPair(kb, kAesRounds, lane)));
        // h = [H(a0, j0), H(b0, j1), H(a0^R, j0), H(b0^R, j1)].
        const __m512i h = _mm512_xor_si512(s, x);
        const __m256i h0 = _mm512_castsi512_si256(h);
        const __m256i d =
            _mm256_xor_si256(h0, _mm512_extracti64x4_epi64(h, 1));
        const __m128i ha0 = _mm256_castsi256_si128(h0);
        const __m128i hb0 = _mm256_extracti128_si256(h0, 1);
        const __m128i dg = _mm256_castsi256_si128(d);
        const __m128i de = _mm256_extracti128_si256(d, 1);
        const __m128i ma = lsbMask(a), mb = lsbMask(b);
        const __m128i tg = _mm_xor_si128(dg, _mm_and_si128(rr, mb));
        const __m128i wg0 = _mm_xor_si128(ha0, _mm_and_si128(tg, ma));
        const __m128i we0 = _mm_xor_si128(hb0, _mm_and_si128(de, mb));
        store(table.tg, tg);
        store(table.te, _mm_xor_si128(de, a));
        store(out_zero, _mm_xor_si128(wg0, we0));
    }

    /**
     * evaluateAnd() with stored schedules: [a, b] in one register, the
     * table read from its 32 wire bytes at @p table.
     */
    HAAC_VAES_TARGET static void
    evaluate(const TweakKeyBlock &kb, int lane, const Label &a_,
             const Label &b_, const uint8_t *table, Label &out)
    {
        const __m128i a = load(a_), b = load(b_);
        const __m256i x =
            _mm256_inserti128_si256(_mm256_castsi128_si256(a), b, 1);
        __m256i s = _mm256_xor_si256(x, keyPair(kb, 0, lane));
        for (int round = 1; round < kAesRounds; ++round)
            s = _mm256_aesenc_epi128(s, keyPair(kb, round, lane));
        s = _mm256_aesenclast_epi128(s, keyPair(kb, kAesRounds, lane));
        // [H(a, j0) ^ (sa ? tg : 0), H(b, j1) ^ (sb ? te ^ a : 0)].
        const __m256i fix = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(table)),
            _mm256_inserti128_si256(_mm256_setzero_si256(), a, 1));
        const __m256i w = _mm256_xor_si256(
            _mm256_xor_si256(s, x), _mm256_and_si256(fix, lsbMask(x)));
        store(out, _mm_xor_si128(_mm256_castsi256_si128(w),
                                 _mm256_extracti128_si256(w, 1)));
    }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

    HAAC_VAES_WALK static uint64_t
    garbleWalk(const Netlist &netlist, Label *zero, const Label &r,
               TableSegmentSink &sink)
    {
        TweakKeyStream ks;
        SegmentWriter out(sink);
        walkGates(netlist, zero,
                  [&](const Label &a0, const Label &b0) HAAC_VAES_TARGET {
                      int lane = 0;
                      const TweakKeyBlock &kb = advance(ks, lane);
                      Label out_zero;
                      garble(kb, lane, a0, b0, r, out.slot(), out_zero);
                      out.written();
                      return out_zero;
                  });
        out.finish();
        return ks.next_;
    }

    HAAC_VAES_WALK static void
    evaluateWalk(const Netlist &netlist, Label *labels,
                 TableSegmentSource &source)
    {
        TweakKeyStream ks;
        SegmentReader in(source);
        walkGates(netlist, labels,
                  [&](const Label &a, const Label &b) HAAC_VAES_TARGET {
                      const uint8_t *table = in.next();
                      int lane = 0;
                      const TweakKeyBlock &kb = advance(ks, lane);
                      Label out;
                      evaluate(kb, lane, a, b, table, out);
                      return out;
                  });
    }
};

TweakKeyStream::TweakKeyStream(uint64_t first_and)
    : first_(first_and), next_(first_and)
{
    if (!haveTweakKeyStream())
        throw std::logic_error("TweakKeyStream: this CPU lacks VAES-512");
    KeyedKernels::expand(first_, blocks_[0]);
}

HalfGateGarbled
TweakKeyStream::garble(const Label &a0, const Label &b0, const Label &r)
{
    int lane = 0;
    const TweakKeyBlock &kb = KeyedKernels::advance(*this, lane);
    HalfGateGarbled out;
    KeyedKernels::garble(kb, lane, a0, b0, r, out.table, out.outZero);
    return out;
}

Label
TweakKeyStream::evaluate(const Label &a, const Label &b,
                         const GarbledTable &table)
{
    int lane = 0;
    const TweakKeyBlock &kb = KeyedKernels::advance(*this, lane);
    Label out;
    KeyedKernels::evaluate(kb, lane, a, b,
                           reinterpret_cast<const uint8_t *>(&table), out);
    return out;
}

uint64_t
garbleGatesKeyed(const Netlist &netlist, std::vector<Label> &zero,
                 const Label &offset, TableSegmentSink &sink)
{
    return KeyedKernels::garbleWalk(netlist, zero.data(), offset, sink);
}

void
evaluateGatesKeyed(const Netlist &netlist, std::vector<Label> &labels,
                   TableSegmentSource &source)
{
    KeyedKernels::evaluateWalk(netlist, labels.data(), source);
}

#else // !HAAC_USE_VAES: the build has no VAES kernels to offer.

bool
haveTweakKeyStream()
{
    return false;
}

namespace {

[[noreturn]] void
notBuilt()
{
    throw std::logic_error("TweakKeyStream: built without VAES kernels");
}

} // namespace

TweakKeyStream::TweakKeyStream(uint64_t first_and)
    : blocks_(), first_(first_and), next_(first_and)
{
    notBuilt();
}

HalfGateGarbled
TweakKeyStream::garble(const Label &, const Label &, const Label &)
{
    notBuilt();
}

Label
TweakKeyStream::evaluate(const Label &, const Label &, const GarbledTable &)
{
    notBuilt();
}

uint64_t
garbleGatesKeyed(const Netlist &, std::vector<Label> &, const Label &,
                 TableSegmentSink &)
{
    notBuilt();
}

void
evaluateGatesKeyed(const Netlist &, std::vector<Label> &,
                   TableSegmentSource &)
{
    notBuilt();
}

#endif

} // namespace haac
