#include "gc/base_ot.h"

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
hashPoint(const ec::Point &p, uint64_t index)
{
    uint8_t bytes[ec::kPointBytes];
    p.toBytes(bytes);
    const Label lo = Label::fromBytes(bytes);
    const Label hi = Label::fromBytes(bytes + kLabelBytes);
    Label hlo, hhi;
    hashRekeyedPair(kBaseOtTweak + 2 * index, kBaseOtTweak + 2 * index + 1,
                    &lo, &hlo, &hi, &hhi, 1);
    return hlo ^ hhi;
}

ec::Point
recvPoint(ByteChannel &in, const char *what)
{
    uint8_t bytes[ec::kPointBytes];
    in.recvBytes(bytes, sizeof(bytes));
    ec::Point p;
    if (!ec::Point::fromBytes(bytes, p))
        throw OtError(std::string("base OT: invalid ") + what +
                      " (not a curve point)");
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
    A_ = ec::Point::mul(y_, ec::Point::base());
    sendPoint(*out_, A_);
    out_->flush();
}

void
BaseOtSender::finish(size_t count)
{
    keys0_.resize(count);
    keys1_.resize(count);
    const ec::Point yA = ec::Point::mul(y_, A_);
    for (size_t i = 0; i < count; ++i) {
        const ec::Point r = recvPoint(*in_, "blinded point");
        const ec::Point yR = ec::Point::mul(y_, r);
        keys0_[i] = hashPoint(yR, i);
        keys1_[i] = hashPoint(yR.sub(yA), i);
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
    keys_.resize(choices.size());
    for (size_t i = 0; i < choices.size(); ++i) {
        const ec::Scalar x = ec::randomScalar(*rng_);
        ec::Point r = ec::Point::mul(x, ec::Point::base());
        if (choices[i])
            r = r.add(a);
        sendPoint(*out_, r);
        keys_[i] = hashPoint(ec::Point::mul(x, a), i);
    }
    out_->flush();
}

} // namespace haac
