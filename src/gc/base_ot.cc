#include "gc/base_ot.h"

#include <vector>

#include "crypto/hash.h"

namespace haac {

namespace {

/**
 * Hash a compressed point into a 128-bit key, domain-separated per OT
 * index: two re-keyed MMO compressions (one per point half) under
 * distinct tweaks, well clear of the garbling tweak space.
 */
constexpr uint64_t kBaseOtTweak = 0x424f545f00000000ull; // "BOT_"

Label
hashPoint(const uint8_t bytes[ec::kPointBytes], uint64_t index)
{
    const Label lo = Label::fromBytes(bytes);
    const Label hi = Label::fromBytes(bytes + kLabelBytes);
    Label hlo, hhi;
    hashRekeyedPair(kBaseOtTweak + 2 * index, kBaseOtTweak + 2 * index + 1,
                    &lo, &hlo, &hi, &hhi, 1);
    return hlo ^ hhi;
}

OtError
invalidPoint(const char *what)
{
    return OtError(std::string("base OT: invalid ") + what +
                   " (not a curve point)");
}

ec::Point
recvPoint(ByteChannel &in, const char *what)
{
    uint8_t bytes[ec::kPointBytes];
    in.recvBytes(bytes, sizeof(bytes));
    ec::Point p;
    if (!ec::Point::fromBytes(bytes, p))
        throw invalidPoint(what);
    return p;
}

void
sendPoint(ByteChannel &out, const ec::Point &p)
{
    uint8_t bytes[ec::kPointBytes];
    p.toBytes(bytes);
    out.sendBytes(bytes, sizeof(bytes));
}

} // namespace

BaseOtSender::BaseOtSender(ByteChannel &out, ByteChannel &in, Prg &rng)
    : out_(&out), in_(&in), rng_(&rng)
{
}

void
BaseOtSender::start()
{
    y_ = ec::randomScalar(*rng_);
    A_ = ec::Point::mulBase(y_);
    sendPoint(*out_, A_);
    out_->flush();
}

void
BaseOtSender::finish(size_t count)
{
    // Decompress all R_i, multiply them and A by y in one batch, then
    // y*(R_i - A) = y*R_i - y*A for every i and one batched
    // compression for all 2*count key points.
    std::vector<uint8_t> bytes(2 * count * ec::kPointBytes);
    in_->recvBytes(bytes.data(), count * ec::kPointBytes);
    std::vector<ec::Point> yr(count + 1);
    if (ec::Point::fromBytesBatch(bytes.data(), count, yr.data()) != count)
        throw invalidPoint("blinded point");
    yr[count] = A_;
    ec::Point::mulMany(y_, yr.data(), yr.data(), yr.size());
    std::vector<ec::Point> points(2 * count);
    for (size_t i = 0; i < count; ++i) {
        points[2 * i] = yr[i];
        points[2 * i + 1] = yr[i].sub(yr[count]);
    }
    ec::Point::toBytesBatch(points.data(), points.size(), bytes.data());
    keys0_.resize(count);
    keys1_.resize(count);
    for (size_t i = 0; i < count; ++i) {
        keys0_[i] = hashPoint(&bytes[2 * i * ec::kPointBytes], i);
        keys1_[i] = hashPoint(&bytes[(2 * i + 1) * ec::kPointBytes], i);
    }
}

BaseOtReceiver::BaseOtReceiver(ByteChannel &out, ByteChannel &in,
                               Prg &rng)
    : out_(&out), in_(&in), rng_(&rng)
{
}

void
BaseOtReceiver::run(const std::vector<bool> &choices)
{
    const ec::Point a = recvPoint(*in_, "public key");
    const ec::FixedBase a_table(a); // serves all n multiples x_i*A
    // points[i] = R_i = x_i*G + c_i*A (sent), points[n + i] = x_i*A
    // (hashed into the key); one batched compression for all of them.
    const size_t n = choices.size();
    std::vector<ec::Scalar> x(n);
    for (ec::Scalar &xi : x)
        xi = ec::randomScalar(*rng_);
    std::vector<ec::Point> points(2 * n);
    ec::FixedBase::base().mulMany(x.data(), points.data(), n);
    a_table.mulMany(x.data(), points.data() + n, n);
    for (size_t i = 0; i < n; ++i)
        points[i] = ec::Point::select(points[i], points[i].add(a),
                                      choices[i]);
    std::vector<uint8_t> bytes(points.size() * ec::kPointBytes);
    ec::Point::toBytesBatch(points.data(), points.size(), bytes.data());
    keys_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        out_->sendBytes(&bytes[i * ec::kPointBytes], ec::kPointBytes);
        keys_[i] = hashPoint(&bytes[(n + i) * ec::kPointBytes], i);
    }
    out_->flush();
}

} // namespace haac
