#include "net/wire.h"

#include <cstring>

namespace haac {

namespace {

/** Cap for decoded element counts: a corrupt length can't OOM us. */
constexpr uint64_t kMaxElements = uint64_t(1) << 32;

} // namespace

void
WireWriter::f64(double v)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
WireWriter::str(const std::string &s)
{
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
WireWriter::u32vec(const std::vector<uint32_t> &v)
{
    u64(v.size());
    for (uint32_t x : v)
        u32(x);
}

void
WireWriter::u64vec(const std::vector<uint64_t> &v)
{
    u64(v.size());
    for (uint64_t x : v)
        u64(x);
}

void
WireWriter::bits(const std::vector<bool> &v)
{
    u64(v.size());
    uint8_t acc = 0;
    for (size_t i = 0; i < v.size(); ++i) {
        if (v[i])
            acc |= uint8_t(1u << (i % 8));
        if (i % 8 == 7) {
            buf_.push_back(acc);
            acc = 0;
        }
    }
    if (v.size() % 8 != 0)
        buf_.push_back(acc);
}

void
WireReader::need(size_t n) const
{
    if (buf_.size() - pos_ < n)
        throw NetError("wire decode: payload truncated (need " +
                       std::to_string(n) + " more bytes, have " +
                       std::to_string(buf_.size() - pos_) + ")");
}

uint8_t
WireReader::u8()
{
    need(1);
    return buf_[pos_++];
}

uint16_t
WireReader::u16()
{
    const uint16_t lo = u8();
    return uint16_t(lo | uint16_t(u8()) << 8);
}

uint32_t
WireReader::u32()
{
    const uint32_t lo = u16();
    return lo | uint32_t(u16()) << 16;
}

uint64_t
WireReader::u64()
{
    const uint64_t lo = u32();
    return lo | uint64_t(u32()) << 32;
}

double
WireReader::f64()
{
    const uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string_view
WireReader::str()
{
    const uint64_t n = u64();
    need(n);
    const std::string_view s(
        reinterpret_cast<const char *>(buf_.data()) + pos_, n);
    pos_ += n;
    return s;
}

std::vector<uint32_t>
WireReader::u32vec()
{
    const uint64_t n = u64();
    if (n > kMaxElements)
        throw NetError("wire decode: absurd element count");
    need(n * 4);
    std::vector<uint32_t> v(n);
    for (uint64_t i = 0; i < n; ++i)
        v[i] = u32();
    return v;
}

std::vector<uint64_t>
WireReader::u64vec()
{
    const uint64_t n = u64();
    if (n > kMaxElements)
        throw NetError("wire decode: absurd element count");
    need(n * 8);
    std::vector<uint64_t> v(n);
    for (uint64_t i = 0; i < n; ++i)
        v[i] = u64();
    return v;
}

std::vector<bool>
WireReader::bits()
{
    const uint64_t n = u64();
    if (n > kMaxElements)
        throw NetError("wire decode: absurd bit count");
    need((n + 7) / 8);
    std::vector<bool> v(n);
    for (uint64_t i = 0; i < n; ++i) {
        if (i % 8 == 0)
            need(1);
        v[i] = (buf_[pos_ + i / 8] >> (i % 8)) & 1;
    }
    pos_ += (n + 7) / 8;
    return v;
}

void
WireReader::expectEnd(const char *what) const
{
    if (remaining() != 0)
        throw NetError(std::string("wire decode: ") + what + " frame has " +
                       std::to_string(remaining()) + " trailing bytes");
}

std::vector<uint8_t>
makeLinkTableFrame(uint32_t node, uint32_t count, const uint8_t *tables,
                   size_t table_bytes)
{
    WireWriter w;
    w.u8(kLinkTableFrameKind);
    w.u32(node);
    w.u32(count);
    std::vector<uint8_t> frame = w.take();
    frame.insert(frame.end(), tables, tables + table_bytes);
    return frame;
}

LinkTableFrame
parseLinkTableFrame(const std::vector<uint8_t> &frame)
{
    if (frame.size() < kLinkTableFrameHeaderBytes)
        throw NetError("link-table frame: truncated header");
    WireReader r(frame);
    if (r.u8() != kLinkTableFrameKind)
        throw NetError("link-table frame: wrong frame kind");
    LinkTableFrame out;
    out.node = r.u32();
    out.count = r.u32();
    out.payloadOffset = kLinkTableFrameHeaderBytes;
    const size_t payload = frame.size() - out.payloadOffset;
    if (payload != size_t(out.count) * 32)
        throw NetError("link-table frame: payload is " +
                       std::to_string(payload) + " bytes for " +
                       std::to_string(out.count) + " tables");
    return out;
}

std::vector<uint8_t>
makeNetlistUploadFrame(const std::string &bristol)
{
    WireWriter w;
    w.u8(kNetlistUploadFrameKind);
    w.str(bristol);
    return w.take();
}

bool
isNetlistUploadFrame(const std::vector<uint8_t> &frame)
{
    return !frame.empty() && frame[0] == kNetlistUploadFrameKind;
}

std::string_view
parseNetlistUploadFrame(const std::vector<uint8_t> &frame)
{
    if (!isNetlistUploadFrame(frame))
        throw NetError("netlist-upload frame: wrong frame kind");
    WireReader r(frame);
    (void)r.u8();
    const std::string_view text = r.str();
    r.expectEnd("netlist-upload");
    return text;
}

} // namespace haac
