#include "gc/ot_ext.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "crypto/bitmatrix.h"
#include "crypto/gf128.h"
#include "crypto/hash.h"

namespace haac {

namespace {

/**
 * Correlation-robust hash tweak base for extended OT j; the base-OT
 * domain uses kBaseOtTweak (base_ot.cc) and garbling tweaks are dense
 * near zero, so the three spaces cannot collide.
 */
constexpr uint64_t kOtExtTweak = 0x4f5445585f000000ull; // "OTEX_"

/** Tweak keying the Fiat-Shamir digest of the uplinked columns. */
constexpr uint64_t kOtKosTweak = 0x4f544b4f53000000ull; // "OTKOS"

size_t
blocksFor(size_t count)
{
    return (count + kOtExtColumns - 1) / kOtExtColumns;
}

/**
 * Digest the uplinked column matrix into the chi-PRG key (Fiat-Shamir:
 * both sides derive the KOS15 challenge from the transcript, so no
 * extra round trip). Merkle-Damgard over the Davies-Meyer compression
 * the rekeyed hasher already is.
 */
Label
foldColumns(const std::vector<uint8_t> &u)
{
    const RekeyedHasher h(kOtKosTweak);
    Label acc;
    for (size_t off = 0; off < u.size(); off += kLabelBytes)
        acc = h(acc ^ Label::fromBytes(u.data() + off));
    return acc;
}

/**
 * The KOS15 challenges chi_j for @p rows extended OTs, drawn from the
 * Fiat-Shamir digest of the uplinked columns. Each chi_j is one PRG
 * label with its 64-bit halves swapped: the challenge was first
 * written as Label(chi.nextU64(), chi.nextU64()), and the compiler
 * the wire format was recorded with evaluates those arguments right
 * to left. Spelling the order out keeps every compiler on that
 * format.
 */
std::vector<Label>
kosChallenges(const std::vector<uint8_t> &u, size_t rows)
{
    Prg prg(foldColumns(u));
    std::vector<Label> chi(rows);
    prg.nextLabels(chi.data(), rows);
    for (Label &c : chi)
        std::swap(c.lo, c.hi);
    return chi;
}

/** All-ones when bit @p i of @p bits is set, else zero. */
uint64_t
bitMask(const Label &bits, size_t i)
{
    const uint64_t word = i < 64 ? bits.lo : bits.hi;
    return 0 - ((word >> (i % 64)) & 1);
}

/** dst ^= src & mask, a word at a time; @p n is a multiple of 8. */
void
xorBytes(uint8_t *dst, const uint8_t *src, size_t n,
         uint64_t mask = ~uint64_t(0))
{
    for (size_t i = 0; i < n; i += 8) {
        uint64_t a, b;
        std::memcpy(&a, dst + i, 8);
        std::memcpy(&b, src + i, 8);
        a ^= b & mask;
        std::memcpy(dst + i, &a, 8);
    }
}

} // namespace

Label
otRandomKey()
{
    return Label(randomSeed(), randomSeed());
}

OtExtSender::OtExtSender(ByteChannel &out, ByteChannel &in,
                         const Label &rng_key)
    : out_(&out), in_(&in), rng_(rng_key)
{
}

OtExtSender::OtExtSender(ByteChannel &out, ByteChannel &in,
                         uint64_t rng_seed)
    : out_(&out), in_(&in), rng_(rng_seed)
{
}

void
OtExtSender::setup()
{
    std::vector<bool> s_bits(kOtExtColumns);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        const bool bit = rng_.nextBit();
        s_bits[i] = bit;
        if (bit) {
            if (i < 64)
                s_.lo |= uint64_t(1) << i;
            else
                s_.hi |= uint64_t(1) << (i - 64);
        }
    }

    // IKNP role reversal: receive the base OTs with choice vector s.
    BaseOtReceiver base(*out_, *in_, rng_);
    base.run(s_bits);
    columnPrg_.reserve(kOtExtColumns);
    for (const Label &key : base.keys())
        columnPrg_.emplace_back(key);
    ready_ = true;
}

void
OtExtSender::send(const std::vector<Label> &m0,
                  const std::vector<Label> &m1)
{
    if (!ready_)
        throw std::logic_error("OtExtSender: send() before setup()");
    if (m0.size() != m1.size())
        throw std::invalid_argument(
            "OtExtSender: mismatched message vectors");
    const size_t m = m0.size();
    if (m == 0)
        return;

    // One extra all-random block of OTs per batch: the KOS15 proof
    // reveals a random linear combination of the choice bits, and the
    // padding rows statistically mask the real ones.
    const size_t ext_blocks = blocksFor(m) + 1;
    const size_t col_bytes = ext_blocks * kLabelBytes;

    // Receiver's masked columns, then this side's view q_i.
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    in_->recvBytes(u.data(), u.size());
    std::vector<uint8_t> q(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *qi = q.data() + i * col_bytes;
        columnPrg_[i].nextBytes(qi, col_bytes);
        xorBytes(qi, u.data() + i * col_bytes, col_bytes, bitMask(s_, i));
    }

    std::vector<Label> rows(ext_blocks * kOtExtColumns);
    for (size_t b = 0; b < ext_blocks; ++b)
        transpose128Block(q.data() + b * kLabelBytes, col_bytes,
                          &rows[b * kOtExtColumns]);

    // KOS15 consistency check: a receiver that used a different r in
    // some column (the selective-failure probe IKNP permits) cannot
    // produce (x, t~) with t~ == q~ ^ x*s except with probability
    // 2^-128, because q_j = t_j ^ r_j*s only when r was global.
    uint8_t proof[2 * kLabelBytes];
    in_->recvBytes(proof, sizeof proof);
    const Label x = Label::fromBytes(proof);
    const Label t_tilde = Label::fromBytes(proof + kLabelBytes);
    const std::vector<Label> chi = kosChallenges(u, rows.size());
    const Label q_tilde = gf128MulSum(chi.data(), rows.data(), rows.size());
    if (t_tilde != (q_tilde ^ gf128Mul(x, s_)))
        throw OtError(
            "OtExtSender: KOS15 consistency check failed — receiver "
            "used inconsistent choice bits across columns");

    // q_j = t_j ^ r_j*s, so H(j, q_j) masks m0 toward choice 0 and
    // H(j, q_j ^ s) masks m1 toward choice 1. OTs j and j+1 share one
    // fused call, two blocks per tweak; at odd m the last call also
    // hashes a pad row (rows has a spare block) and drops it.
    for (size_t j = 0; j < m; j += 2) {
        const uint64_t tweak = kOtExtTweak + tweakBase_ + j;
        const Label x0[2] = {rows[j], rows[j] ^ s_};
        const Label x1[2] = {rows[j + 1], rows[j + 1] ^ s_};
        Label y0[2], y1[2];
        hashRekeyedPair(tweak, tweak + 1, x0, y0, x1, y1, 2);
        out_->sendLabel(m0[j] ^ y0[0]);
        out_->sendLabel(m1[j] ^ y0[1]);
        if (j + 1 < m) {
            out_->sendLabel(m0[j + 1] ^ y1[0]);
            out_->sendLabel(m1[j + 1] ^ y1[1]);
        }
    }
    tweakBase_ += ext_blocks * kOtExtColumns;
    out_->flush();
}

OtExtReceiver::OtExtReceiver(ByteChannel &out, ByteChannel &in,
                             const Label &rng_key)
    : out_(&out), in_(&in), rng_(rng_key), base_(out, in, rng_)
{
}

OtExtReceiver::OtExtReceiver(ByteChannel &out, ByteChannel &in,
                             uint64_t rng_seed)
    : out_(&out), in_(&in), rng_(rng_seed), base_(out, in, rng_)
{
}

void
OtExtReceiver::start()
{
    base_.start();
}

void
OtExtReceiver::setup()
{
    base_.finish(kOtExtColumns);
    columnPrg0_.reserve(kOtExtColumns);
    columnPrg1_.reserve(kOtExtColumns);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        columnPrg0_.emplace_back(base_.keys0()[i]);
        columnPrg1_.emplace_back(base_.keys1()[i]);
    }
    ready_ = true;
}

void
OtExtReceiver::sendChoices(const std::vector<bool> &choices)
{
    if (!ready_)
        throw std::logic_error(
            "OtExtReceiver: sendChoices() before setup()");
    if (batchPending_)
        throw std::logic_error(
            "OtExtReceiver: previous batch not yet received");
    choices_ = choices;
    const size_t m = choices.size();
    if (m == 0)
        return;

    // One extra all-random block (see send()): its rows enter the
    // KOS15 proof but never carry labels. Block-boundary padding of
    // the real blocks stays random too (those pad OTs are unused).
    const size_t ext_blocks = blocksFor(m) + 1;
    const size_t col_bytes = ext_blocks * kLabelBytes;

    // Choice bits as a column; everything beyond bit m is random.
    std::vector<uint8_t> r(col_bytes);
    rng_.nextBytes(r.data(), r.size());
    for (size_t j = 0; j < m; ++j) {
        const unsigned shift = j % 8;
        r[j / 8] = uint8_t((r[j / 8] & ~(1u << shift)) |
                           (unsigned(choices[j]) << shift));
    }

    std::vector<uint8_t> t(kOtExtColumns * col_bytes);
    std::vector<uint8_t> u(kOtExtColumns * col_bytes);
    for (size_t i = 0; i < kOtExtColumns; ++i) {
        uint8_t *ti = t.data() + i * col_bytes;
        uint8_t *ui = u.data() + i * col_bytes;
        columnPrg0_[i].nextBytes(ti, col_bytes);
        columnPrg1_[i].nextBytes(ui, col_bytes);
        xorBytes(ui, ti, col_bytes);
        xorBytes(ui, r.data(), col_bytes);
    }
    out_->sendBytes(u.data(), u.size());

    rows_.assign(ext_blocks * kOtExtColumns, Label());
    for (size_t b = 0; b < ext_blocks; ++b)
        transpose128Block(t.data() + b * kLabelBytes, col_bytes,
                          &rows_[b * kOtExtColumns]);

    // KOS15 proof: x = sum of chi_j over set choice bits, and
    // t~ = sum of chi_j * t_j in GF(2^128), over every extended row.
    const std::vector<Label> chi = kosChallenges(u, rows_.size());
    Label x;
    for (size_t j = 0; j < chi.size(); ++j) {
        const uint64_t mask = 0 - uint64_t((r[j / 8] >> (j % 8)) & 1);
        x ^= Label(chi[j].lo & mask, chi[j].hi & mask);
    }
    const Label t_tilde =
        gf128MulSum(chi.data(), rows_.data(), rows_.size());
    uint8_t proof[2 * kLabelBytes];
    x.toBytes(proof);
    t_tilde.toBytes(proof + kLabelBytes);
    out_->sendBytes(proof, sizeof proof);
    out_->flush();
    batchPending_ = true;
}

std::vector<Label>
OtExtReceiver::receiveLabels()
{
    if (!ready_)
        throw std::logic_error(
            "OtExtReceiver: receiveLabels() before setup()");
    if (!batchPending_) {
        if (choices_.empty())
            return {}; // an empty batch legitimately has no labels
        throw std::logic_error(
            "OtExtReceiver: receiveLabels() without sendChoices()");
    }
    const size_t m = choices_.size();
    std::vector<uint8_t> pairs(2 * kLabelBytes * m);
    in_->recvBytes(pairs.data(), pairs.size());
    std::vector<Label> labels(m);
    // H(j, t_j) for OTs j and j+1 per fused call, one block per tweak
    // (at odd m the spare pad row fills the second slot).
    for (size_t j = 0; j < m; j += 2) {
        const uint64_t tweak = kOtExtTweak + tweakBase_ + j;
        Label h[2];
        hashRekeyedPair(tweak, tweak + 1, &rows_[j], &h[0], &rows_[j + 1],
                        &h[1], 1);
        for (size_t k = j; k < j + 2 && k < m; ++k) {
            const uint8_t *pair = pairs.data() + 2 * kLabelBytes * k;
            const Label y0 = Label::fromBytes(pair);
            const Label y1 = Label::fromBytes(pair + kLabelBytes);
            const uint64_t mask = 0 - uint64_t(choices_[k]);
            labels[k] = Label(y0.lo ^ ((y0.lo ^ y1.lo) & mask),
                              y0.hi ^ ((y0.hi ^ y1.hi) & mask)) ^
                        h[k - j];
        }
    }
    tweakBase_ += (blocksFor(m) + 1) * kOtExtColumns;
    batchPending_ = false;
    return labels;
}

} // namespace haac
