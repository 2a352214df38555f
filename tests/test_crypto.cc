/**
 * @file
 * Unit tests for the crypto substrate: AES-128 against FIPS-197
 * vectors, label algebra, PRG determinism, the Half-Gate hashes, and
 * the base-OT group arithmetic (Curve25519) plus the OT-extension
 * bit transpose.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/bitmatrix.h"
#include "crypto/curve25519.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"
#include "crypto/label.h"
#include "crypto/prg.h"
#include "gc/evaluator.h"
#include "gc/garbler.h"

namespace haac {
namespace {

/** FNV-1a over a 64-bit word's bytes, little-endian: the goldens' digest. */
void
fnvMix(uint64_t &digest, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xff;
        digest *= 0x100000001b3ull;
    }
}

void
fnvMix(uint64_t &digest, const uint8_t *bytes, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        digest ^= bytes[i];
        digest *= 0x100000001b3ull;
    }
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::array<uint8_t, 16>
fromHex(const std::string &hex)
{
    std::array<uint8_t, 16> out{};
    for (size_t i = 0; i < 16; ++i)
        out[i] = uint8_t(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
    return out;
}

TEST(Aes128, Fips197AppendixCVector)
{
    const auto key = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto pt = fromHex("00112233445566778899aabbccddeeff");
    const auto want = fromHex("69c4e0d86a7b0430d8cdb78070b4c55a");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, Fips197AppendixBVector)
{
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const auto pt = fromHex("3243f6a8885a308d313198a2e0370734");
    const auto want = fromHex("3925841d02dc09fbdc118597196a0b32");
    Aes128 aes(key.data());
    uint8_t ct[16];
    aes.encryptBlock(pt.data(), ct);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(ct[i], want[i]) << "byte " << i;
}

TEST(Aes128, KeyScheduleFips197AppendixA1)
{
    // FIPS-197 Appendix A.1: all 44 schedule words w0..w43 for the
    // Appendix B key, so the hardware and portable expansions are held
    // to the same 176 bytes.
    static const char *const kWords[4 * (kAesRounds + 1)] = {
        "2b7e1516", "28aed2a6", "abf71588", "09cf4f3c", "a0fafe17",
        "88542cb1", "23a33939", "2a6c7605", "f2c295f2", "7a96b943",
        "5935807a", "7359f67f", "3d80477d", "4716fe3e", "1e237e44",
        "6d7a883b", "ef44a541", "a8525b7f", "b671253b", "db0bad00",
        "d4d1c6f8", "7c839d87", "caf2b8bc", "11f915bc", "6d88a37a",
        "110b3efd", "dbf98641", "ca0093fd", "4e54f70e", "5f5fc9f3",
        "84a64fb2", "4ea6dc4f", "ead27321", "b58dbad2", "312bf560",
        "7f8d292f", "ac7766f3", "19fadc21", "28d12941", "575c006e",
        "d014f9a8", "c9ee2589", "e13f0cc8", "b6630ca6",
    };
    const auto key = fromHex("2b7e151628aed2a6abf7158809cf4f3c");
    Aes128 aes(key.data());
    const auto &rk = aes.roundKeys();
    for (int w = 0; w < 4 * (kAesRounds + 1); ++w) {
        char hex[9];
        std::snprintf(hex, sizeof(hex), "%02x%02x%02x%02x", rk[4 * w],
                      rk[4 * w + 1], rk[4 * w + 2], rk[4 * w + 3]);
        EXPECT_STREQ(hex, kWords[w]) << "w" << w;
    }
}

TEST(Aes128, EncryptIsDeterministicAndKeyDependent)
{
    const auto key1 = fromHex("000102030405060708090a0b0c0d0e0f");
    const auto key2 = fromHex("000102030405060708090a0b0c0d0e1f");
    Aes128 a(key1.data()), b(key1.data()), c(key2.data());
    Label x(0x1234, 0x5678);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
    EXPECT_NE(a.encryptBlock(x), c.encryptBlock(x));
}

TEST(Aes128, LabelConstructorMatchesByteConstructor)
{
    Label key(0x0706050403020100ull, 0x0f0e0d0c0b0a0908ull);
    uint8_t bytes[16];
    key.toBytes(bytes);
    Aes128 a(key), b(bytes);
    Label x(42, 43);
    EXPECT_EQ(a.encryptBlock(x), b.encryptBlock(x));
}

TEST(Label, XorAlgebra)
{
    Label a(0xdeadbeef, 0xfeedface);
    Label b(0x12345678, 0x9abcdef0);
    EXPECT_EQ(a ^ b, b ^ a);
    EXPECT_EQ((a ^ b) ^ b, a);
    EXPECT_TRUE((a ^ a).isZero());
}

TEST(Label, LsbManipulation)
{
    Label a(0x2, 0x0);
    EXPECT_FALSE(a.lsb());
    a.setLsb(true);
    EXPECT_TRUE(a.lsb());
    EXPECT_EQ(a.lo, 0x3u);
    a.setLsb(false);
    EXPECT_EQ(a.lo, 0x2u);
}

TEST(Label, ByteRoundTrip)
{
    Label a(0x1122334455667788ull, 0x99aabbccddeeff00ull);
    uint8_t buf[16];
    a.toBytes(buf);
    EXPECT_EQ(Label::fromBytes(buf), a);
}

TEST(Label, HexFormat)
{
    Label a(0x1ull, 0x0ull);
    EXPECT_EQ(a.toHex(),
              "00000000000000000000000000000001");
}

TEST(Prg, DeterministicPerSeed)
{
    Prg a(123), b(123), c(124);
    for (int i = 0; i < 32; ++i) {
        Label la = a.nextLabel();
        EXPECT_EQ(la, b.nextLabel());
        EXPECT_NE(la, c.nextLabel());
    }
}

TEST(Prg, LabelsLookRandom)
{
    Prg prg(7);
    std::set<uint64_t> seen;
    int ones = 0;
    for (int i = 0; i < 256; ++i) {
        Label l = prg.nextLabel();
        seen.insert(l.lo);
        ones += int(l.lo & 1);
    }
    EXPECT_EQ(seen.size(), 256u);
    EXPECT_GT(ones, 80);
    EXPECT_LT(ones, 176);
}

// The PRG's byte stream, recorded on the one-block-at-a-time
// implementation: multi-block generation must emit the same bytes and
// drop the same tail of a partial last block.
TEST(Prg, ByteStreamGolden)
{
    uint64_t digest = kFnvOffset;
    Prg prg(0x70726731);
    for (size_t n : {size_t(1), size_t(15), size_t(16), size_t(17),
                     size_t(64), size_t(100), size_t(128), size_t(129),
                     size_t(4096), size_t(4099)}) {
        std::vector<uint8_t> buf(n);
        prg.nextBytes(buf.data(), n);
        fnvMix(digest, buf.data(), n);
        const Label l = prg.nextLabel();
        fnvMix(digest, l.lo);
        fnvMix(digest, l.hi);
        fnvMix(digest, prg.nextU64());
    }
    Prg keyed(Label(0x1111, 0x2222));
    std::vector<uint8_t> buf(2304);
    keyed.nextBytes(buf.data(), buf.size());
    fnvMix(digest, buf.data(), buf.size());
    EXPECT_EQ(digest, 0x230a1a4725a7c4c9ull) << std::hex << digest;
}

TEST(Prg, BatchedLabelsMatchTheStream)
{
    Prg one(77), batch(77);
    std::vector<Label> labels(37);
    batch.nextLabels(labels.data(), labels.size());
    for (size_t i = 0; i < labels.size(); ++i)
        EXPECT_EQ(labels[i], one.nextLabel()) << "i=" << i;
}

TEST(Prg, RangeIsUnbiasedBounds)
{
    Prg prg(9);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = prg.nextRange(10);
        EXPECT_LT(v, 10u);
    }
}

TEST(HalfGateHash, RekeyedMatchesHasherObject)
{
    Label x(0xabc, 0xdef);
    for (uint64_t tweak : {0ull, 1ull, 77ull, 1ull << 40}) {
        RekeyedHasher h(tweak);
        EXPECT_EQ(h(x), hashRekeyed(x, tweak));
    }
}

TEST(HalfGateHash, TweakSeparatesOutputs)
{
    Label x(1, 2);
    EXPECT_NE(hashRekeyed(x, 0), hashRekeyed(x, 1));
    EXPECT_NE(hashRekeyed(x, 2), hashRekeyed(x, 3));
}

TEST(HalfGateHash, InputSeparatesOutputs)
{
    Label x(1, 2), y(1, 3);
    EXPECT_NE(hashRekeyed(x, 5), hashRekeyed(y, 5));
}

// Golden outputs of the re-keyed hash and the Half-Gate kernels. CI
// runs these on x86 (AES-NI) and on aarch64 (portable AES), so both
// code paths are held to the same bytes. Tweaks at and above 2^32
// cover the high half of the tweak key.
TEST(HalfGateHash, RekeyedGoldenValues)
{
    const Label x(0x0123456789abcdefull, 0xfedcba9876543210ull);
    const struct
    {
        uint64_t tweak;
        const char *hash;
    } kGolden[] = {
        {0, "35cec440782707678620fb4473ae016f"},
        {1, "2f362c13cbe6e1a4cf37a458b812f017"},
        {0x2468ace, "7058fd752c54e7eb1f8c7d717624a775"},
        {(1ull << 32) + 7, "19831813f93e69710ebe97f8b056e755"},
        {0x424f545f00000003ull, "44dfe9770ec442ec30ecc3179783779b"},
        {~0ull, "5b83cd64dc8cfd24b9125d481866ab8b"},
    };
    for (const auto &g : kGolden)
        EXPECT_EQ(hashRekeyed(x, g.tweak).toHex(), g.hash)
            << "tweak " << g.tweak;
}

TEST(HalfGateHash, GarbleAndGoldenValues)
{
    const Label r(0x5555aaaa3333cccdull, 0x0f0f0f0ff0f0f0f0ull);
    const struct
    {
        Label a0, b0;
        uint64_t gate;
        const char *tg, *te, *outZero;
    } kGolden[] = {
        {Label(0x1000, 0x2000), Label(0x3000, 0x4000), 0, "c999e4db8e0b941b8270048941928ae1", "747a4712c50c0ed52e2a58952d26214e", "5134dcafd16a9c22363429233b0197f1"},
        {Label(0x1001, 0x2000), Label(0x3000, 0x4000), 9, "90a5db5be2a2e6aa540b3b35c3ee62b4", "9950ae0ebe141d4ac88925dc03446e30", "e2d695ddffc4599771470be5824f49b4"},
        {Label(0x1000, 0x2000), Label(0x3001, 0x4000), 1ull << 32, "62b564e5f516cdb8154e64686f160f4f",
         "6193233d6e13a7f66106376c1bab801d", "e8e3d6cf67c5bd242f6848d1cdbbd6dc"},
        {Label(0x1001, 0x2000), Label(0x3001, 0x4000),
         0x0123456789abcdefull, "b15085510aacd16581de72ad7d2673a0", "e6cfbf9d6531dcc35e1a93f5ec674b5a", "5ad5ecca6cf48bd2733a17149b03cd28"},
    };
    for (const auto &g : kGolden) {
        const HalfGateGarbled hg = garbleAnd(g.a0, g.b0, r, g.gate);
        EXPECT_EQ(hg.table.tg.toHex(), g.tg) << "gate " << g.gate;
        EXPECT_EQ(hg.table.te.toHex(), g.te) << "gate " << g.gate;
        EXPECT_EQ(hg.outZero.toHex(), g.outZero) << "gate " << g.gate;
    }
}

TEST(HalfGateHash, EvaluateAndGoldenValues)
{
    // An arbitrary (not garbler-made) table, so the evaluator's bytes
    // are pinned independently of garbleAnd's.
    const GarbledTable table{Label(0xaaaa, 0xbbbb), Label(0xcccc, 0xdddd)};
    const struct
    {
        Label a, b;
        uint64_t gate;
        const char *out;
    } kGolden[] = {
        {Label(0x1000, 0x2000), Label(0x3000, 0x4000), 0, "5134dcafd16a9c22363429233b0197f1"},
        {Label(0x1001, 0x2000), Label(0x3000, 0x4000), 9, "72734e861d660486254c30d041a181aa"},
        {Label(0x1000, 0x2000), Label(0x3001, 0x4000), 1ull << 32, "8970f5f209d6c70f4e6e7fbdd6109a0d"},
        {Label(0x1001, 0x2000), Label(0x3001, 0x4000),
         0x0123456789abcdefull, "0d4ad6060369e012acfef64c0a4293b4"},
    };
    for (const auto &g : kGolden)
        EXPECT_EQ(evaluateAnd(g.a, g.b, table, g.gate).toHex(), g.out)
            << "gate " << g.gate;
}

TEST(HalfGateHash, FixedKeyDiffersFromRekeyed)
{
    FixedKeyHasher fixed;
    Label x(11, 22);
    EXPECT_NE(fixed(x, 3), hashRekeyed(x, 3));
    EXPECT_EQ(fixed(x, 3), fixed(x, 3));
    EXPECT_NE(fixed(x, 3), fixed(x, 4));
}

// ---------------------------------------------------------------------------
// GF(2^128) (the KOS15 check)
// ---------------------------------------------------------------------------

TEST(Gf128, EdgeCases)
{
    const Label a(0x0123456789abcdefull, 0xfedcba9876543210ull);
    const Label one(1, 0);
    EXPECT_EQ(gf128Mul(a, Label()), Label());
    EXPECT_EQ(gf128Mul(Label(), a), Label());
    EXPECT_EQ(gf128Mul(a, one), a);
    EXPECT_EQ(gf128Mul(one, a), a);
    // x^127 * x = x^128 = x^7 + x^2 + x + 1.
    EXPECT_EQ(gf128Mul(Label(0, 1ull << 63), Label(2, 0)), Label(0x87, 0));
    EXPECT_EQ(gf128Mul(Label(2, 0), Label(0, 1ull << 63)), Label(0x87, 0));
    const Label ones(~0ull, ~0ull);
    EXPECT_EQ(gf128Mul(ones, ones).toHex(),
              "5555555555555555555555555555402f");
    EXPECT_EQ(gf128Mul(ones, a).toHex(),
              "278db1260aa09c2072d8e4735ff5dc0f");
}

TEST(Gf128, UnreducedSumMatchesSumOfProducts)
{
    Prg prg(0x73756d31);
    std::vector<Label> a(300), b(300);
    for (size_t j = 0; j < a.size(); ++j) {
        a[j] = prg.nextLabel();
        b[j] = prg.nextLabel();
    }
    for (size_t n : {size_t(0), size_t(1), size_t(2), size_t(255),
                     size_t(300)}) {
        Label expected;
        for (size_t j = 0; j < n; ++j)
            expected ^= gf128Mul(a[j], b[j]);
        EXPECT_EQ(gf128MulSum(a.data(), b.data(), n), expected) << "n=" << n;
    }
}

// 10^4 seeded products, recorded on the bit-serial multiply: every
// implementation (PCLMULQDQ or portable) must produce the same field.
TEST(Gf128, SeededProductDigestGolden)
{
    Prg prg(0x67663132);
    uint64_t digest = kFnvOffset;
    for (int i = 0; i < 10000; ++i) {
        const Label a = prg.nextLabel();
        const Label b = prg.nextLabel();
        const Label p = gf128Mul(a, b);
        fnvMix(digest, p.lo);
        fnvMix(digest, p.hi);
    }
    EXPECT_EQ(digest, 0x164995430f1aabbbull) << std::hex << digest;
}

// ---------------------------------------------------------------------------
// Curve25519 (the base-OT group)
// ---------------------------------------------------------------------------

std::string
pointHex(const ec::Point &p)
{
    uint8_t bytes[ec::kPointBytes];
    p.toBytes(bytes);
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : bytes) {
        s += digits[b >> 4];
        s += digits[b & 0xf];
    }
    return s;
}

TEST(Curve25519, BasePointCompressesToRfc8032Encoding)
{
    // The canonical Ed25519 base point: y = 4/5 mod p, x even.
    EXPECT_EQ(pointHex(ec::Point::base()),
              "58666666666666666666666666666666"
              "66666666666666666666666666666666");
}

TEST(Curve25519, GroupOrderAnnihilatesTheBasePoint)
{
    // ell = 2^252 + 27742317777372353535851937790883648493,
    // little-endian.
    const uint8_t ell[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12,
                             0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                             0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                             0x00, 0x00, 0x00, 0x10};
    ec::Scalar s;
    std::memcpy(s.bytes, ell, sizeof(ell));
    EXPECT_TRUE(ec::Point::mul(s, ec::Point::base()).isIdentity());
}

TEST(Curve25519, DiffieHellmanAgrees)
{
    Prg rng(0xec25519);
    for (int round = 0; round < 4; ++round) {
        const ec::Scalar a = ec::randomScalar(rng);
        const ec::Scalar b = ec::randomScalar(rng);
        const ec::Point aG = ec::Point::mul(a, ec::Point::base());
        const ec::Point bG = ec::Point::mul(b, ec::Point::base());
        EXPECT_TRUE(ec::Point::mul(b, aG).equals(ec::Point::mul(a, bG)));
        EXPECT_FALSE(aG.equals(bG));
    }
}

TEST(Curve25519, CompressDecompressRoundtrips)
{
    Prg rng(77);
    for (int round = 0; round < 8; ++round) {
        const ec::Scalar k = ec::randomScalar(rng);
        const ec::Point p = ec::Point::mul(k, ec::Point::base());
        uint8_t bytes[ec::kPointBytes];
        p.toBytes(bytes);
        ec::Point q;
        ASSERT_TRUE(ec::Point::fromBytes(bytes, q));
        EXPECT_TRUE(q.equals(p));
    }
}

TEST(Curve25519, AddSubCancel)
{
    Prg rng(5);
    const ec::Point p =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    const ec::Point q =
        ec::Point::mul(ec::randomScalar(rng), ec::Point::base());
    EXPECT_TRUE(p.add(q).sub(q).equals(p));
    EXPECT_TRUE(p.sub(p).isIdentity());
    EXPECT_TRUE(p.add(ec::Point()).equals(p));
    EXPECT_TRUE(p.dbl().equals(p.add(p)));
}

// Seeded scalar multiples of the base point and of a second point,
// recorded on the double-and-add multiply: fixed-base combs and
// windowed variable-base multiplication must land on the same points.
TEST(Curve25519, SeededMultiplesGolden)
{
    Prg rng(0x63757276);
    const ec::Point p = ec::Point::mul(ec::randomScalar(rng),
                                       ec::Point::base());
    const ec::FixedBase p_table(p);
    uint64_t base_digest = kFnvOffset, var_digest = kFnvOffset;
    uint8_t bytes[ec::kPointBytes];
    for (int i = 0; i < 48; ++i) {
        ec::Scalar k = ec::randomScalar(rng);
        if (i == 0)
            k = ec::Scalar{};
        if (i == 1)
            std::memset(k.bytes, 0xff, sizeof k.bytes);
        ec::Point::mul(k, ec::Point::base()).toBytes(bytes);
        fnvMix(base_digest, bytes, sizeof bytes);
        ec::Point::mul(k, p).toBytes(bytes);
        fnvMix(var_digest, bytes, sizeof bytes);

        // The comb tables land on the same points.
        uint8_t comb[ec::kPointBytes];
        ec::Point::mulBase(k).toBytes(comb);
        ec::Point::mul(k, ec::Point::base()).toBytes(bytes);
        EXPECT_EQ(std::memcmp(comb, bytes, sizeof bytes), 0) << "i=" << i;
        p_table.mul(k).toBytes(comb);
        ec::Point::mul(k, p).toBytes(bytes);
        EXPECT_EQ(std::memcmp(comb, bytes, sizeof bytes), 0) << "i=" << i;
    }
    EXPECT_EQ(base_digest, 0xedd7969e28ba4770ull) << std::hex << base_digest;
    EXPECT_EQ(var_digest, 0x2ad6cdfb47c2bc23ull) << std::hex << var_digest;
}

TEST(Curve25519, BatchCompressionAndSelectMatchSingles)
{
    Prg rng(0x62617463);
    std::vector<ec::Point> points;
    points.push_back(ec::Point());
    for (int i = 0; i < 9; ++i)
        points.push_back(ec::Point::mulBase(ec::randomScalar(rng)));
    std::vector<uint8_t> batch(points.size() * ec::kPointBytes);
    ec::Point::toBytesBatch(points.data(), points.size(), batch.data());
    for (size_t i = 0; i < points.size(); ++i) {
        uint8_t single[ec::kPointBytes];
        points[i].toBytes(single);
        EXPECT_EQ(std::memcmp(single, &batch[i * ec::kPointBytes],
                              ec::kPointBytes),
                  0)
            << "i=" << i;
    }
    EXPECT_TRUE(ec::Point::select(points[1], points[2], false)
                    .equals(points[1]));
    EXPECT_TRUE(ec::Point::select(points[1], points[2], true)
                    .equals(points[2]));
}

TEST(Curve25519, RejectsNonCurveEncodings)
{
    // y = 2 gives a non-square x^2 candidate on this curve.
    uint8_t bad[ec::kPointBytes] = {2};
    ec::Point p;
    EXPECT_FALSE(ec::Point::fromBytes(bad, p));
}

// ---------------------------------------------------------------------------
// Curve25519 batch entry points against the single-point ones. On an
// AVX-512 IFMA host they run the eight-lane kernels; the sizes cover
// empty, partial, whole and whole-plus-one groups of eight lanes.
// ---------------------------------------------------------------------------

const size_t kBatchSizes[] = {0, 1, 7, 8, 9, 128, 129};

#define SKIP_WITHOUT_IFMA()                                                  \
    if (!ec::haveIfma())                                                     \
    GTEST_SKIP() << "no AVX-512 IFMA kernels on this host or build: the "   \
                    "batch entry points loop over the single-point code"

/** 0, 1, 2, L - 1, 2^255 - 1 and 2^256 - 1, then @p random draws. */
std::vector<ec::Scalar>
edgeScalars(Prg &rng, size_t random)
{
    // L - 1 = 2^252 + 27742317777372353535851937790883648492.
    const uint8_t ell_minus_1[32] = {
        0xec, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
        0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
        0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
    std::vector<ec::Scalar> out(6);
    out[1].bytes[0] = 1;
    out[2].bytes[0] = 2;
    std::memcpy(out[3].bytes, ell_minus_1, 32);
    std::memset(out[4].bytes, 0xff, 32);
    out[4].bytes[31] = 0x7f;
    std::memset(out[5].bytes, 0xff, 32);
    for (size_t i = 0; i < random; ++i)
        out.push_back(ec::randomScalar(rng));
    return out;
}

/**
 * The identity, the base point, random multiples (extended
 * coordinates with Z != 1) and decompressed encodings of random
 * points (Z = 1, as a base-OT sender holds its peer's points).
 */
std::vector<ec::Point>
edgePoints(Prg &rng, size_t n)
{
    std::vector<ec::Point> out;
    for (size_t i = 0; out.size() < n; ++i) {
        const ec::Point p = ec::Point::mulBase(ec::randomScalar(rng));
        if (i % 4 == 0)
            out.push_back(i == 0 ? ec::Point() : p);
        else if (i % 4 == 1)
            out.push_back(i == 1 ? ec::Point::base() : p.dbl());
        else if (i % 4 == 2)
            out.push_back(p.add(ec::Point::base()));
        else {
            uint8_t bytes[ec::kPointBytes];
            p.toBytes(bytes);
            ec::Point q;
            EXPECT_TRUE(ec::Point::fromBytes(bytes, q));
            out.push_back(q);
        }
    }
    return out;
}

void
expectSamePoint(const ec::Point &got, const ec::Point &want,
                const std::string &where)
{
    EXPECT_EQ(pointHex(got), pointHex(want)) << where;
}

TEST(Curve25519Batch, MulManyMatchesMul)
{
    SKIP_WITHOUT_IFMA();
    Prg rng(0x6d756c6d);
    const std::vector<ec::Point> in = edgePoints(rng, 129);
    for (const ec::Scalar &k : edgeScalars(rng, 2)) {
        for (size_t n : kBatchSizes) {
            std::vector<ec::Point> out(n);
            ec::Point::mulMany(k, in.data(), out.data(), n);
            for (size_t i = 0; i < n; ++i)
                expectSamePoint(out[i], ec::Point::mul(k, in[i]),
                                "n=" + std::to_string(n) +
                                    " i=" + std::to_string(i));
        }
    }
    // In place, as the base-OT sender calls it.
    std::vector<ec::Point> io(in);
    const ec::Scalar k = ec::randomScalar(rng);
    ec::Point::mulMany(k, io.data(), io.data(), io.size());
    for (size_t i = 0; i < io.size(); ++i)
        expectSamePoint(io[i], ec::Point::mul(k, in[i]),
                        "in place i=" + std::to_string(i));
}

TEST(Curve25519Batch, FixedBaseMulManyMatchesMul)
{
    SKIP_WITHOUT_IFMA();
    Prg rng(0x66697862);
    const ec::FixedBase peer(ec::Point::mulBase(ec::randomScalar(rng)));
    const ec::FixedBase *tables[2] = {&ec::FixedBase::base(), &peer};
    // Per-lane scalars: the edge values land in different lanes as
    // the batch grows.
    const std::vector<ec::Scalar> edges = edgeScalars(rng, 0);
    std::vector<ec::Scalar> k;
    for (size_t i = 0; k.size() < 129; ++i)
        k.push_back(i % 3 == 0 ? edges[(i / 3) % edges.size()]
                               : ec::randomScalar(rng));
    for (const ec::FixedBase *table : tables) {
        for (size_t n : kBatchSizes) {
            std::vector<ec::Point> out(n);
            table->mulMany(k.data(), out.data(), n);
            for (size_t i = 0; i < n; ++i)
                expectSamePoint(out[i], table->mul(k[i]),
                                "n=" + std::to_string(n) +
                                    " i=" + std::to_string(i));
        }
    }
}

TEST(Curve25519Batch, FromBytesBatchMatchesFromBytes)
{
    SKIP_WITHOUT_IFMA();
    Prg rng(0x64656362);
    const std::vector<ec::Point> points = edgePoints(rng, 129);
    std::vector<uint8_t> wire(points.size() * ec::kPointBytes);
    ec::Point::toBytesBatch(points.data(), points.size(), wire.data());
    for (size_t n : kBatchSizes) {
        std::vector<ec::Point> out(n);
        ASSERT_EQ(ec::Point::fromBytesBatch(wire.data(), n, out.data()), n);
        for (size_t i = 0; i < n; ++i)
            expectSamePoint(out[i], points[i],
                            "n=" + std::to_string(n) +
                                " i=" + std::to_string(i));
    }

    // The first invalid encoding wins, wherever it sits in its group
    // of eight: an off-curve y (2) and a non-canonical -0 (the
    // identity with its sign bit set).
    const uint8_t off_curve[ec::kPointBytes] = {2};
    uint8_t minus_zero[ec::kPointBytes] = {1};
    minus_zero[31] = 0x80;
    ec::Point unused;
    ASSERT_FALSE(ec::Point::fromBytes(off_curve, unused));
    ASSERT_FALSE(ec::Point::fromBytes(minus_zero, unused));
    for (size_t bad : {0, 7, 8, 9, 127, 128}) {
        std::vector<uint8_t> tampered(wire);
        std::memcpy(&tampered[bad * ec::kPointBytes],
                    bad % 2 ? off_curve : minus_zero, ec::kPointBytes);
        if (bad + 3 < points.size())
            std::memcpy(&tampered[(bad + 3) * ec::kPointBytes], off_curve,
                        ec::kPointBytes);
        std::vector<ec::Point> out(points.size());
        EXPECT_EQ(ec::Point::fromBytesBatch(tampered.data(), points.size(),
                                            out.data()),
                  bad);
        for (size_t i = 0; i < bad; ++i)
            expectSamePoint(out[i], points[i], "i=" + std::to_string(i));
    }
}

// ---------------------------------------------------------------------------
// Bit-matrix transpose (the OT-extension pivot)
// ---------------------------------------------------------------------------

TEST(BitMatrix, Transpose64MatchesNaive)
{
    Prg rng(41);
    uint64_t m[64], orig[64];
    for (auto &w : m)
        w = rng.nextU64();
    std::memcpy(orig, m, sizeof(m));
    transpose64(m);
    for (int r = 0; r < 64; ++r)
        for (int c = 0; c < 64; ++c)
            ASSERT_EQ((m[r] >> c) & 1, (orig[c] >> r) & 1)
                << "r=" << r << " c=" << c;
}

TEST(BitMatrix, Transpose128BlockMatchesNaive)
{
    // Two blocks with a deliberately non-contiguous column stride.
    constexpr size_t kBlocks = 2;
    constexpr size_t kStride = kBlocks * kLabelBytes + 3;
    Prg rng(42);
    std::vector<uint8_t> cols(128 * kStride);
    rng.nextBytes(cols.data(), cols.size());

    for (size_t b = 0; b < kBlocks; ++b) {
        Label rows[128];
        transpose128Block(cols.data() + b * kLabelBytes, kStride, rows);
        for (int r = 0; r < 128; ++r) {
            for (int c = 0; c < 128; ++c) {
                const size_t bit = b * 128 + r;
                const uint8_t byte =
                    cols[size_t(c) * kStride + bit / 8];
                const int expected = (byte >> (bit % 8)) & 1;
                const uint64_t word = c < 64 ? rows[r].lo : rows[r].hi;
                ASSERT_EQ((word >> (c % 64)) & 1, uint64_t(expected))
                    << "b=" << b << " r=" << r << " c=" << c;
            }
        }
    }
}

} // namespace
} // namespace haac
