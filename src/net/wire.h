/**
 * @file
 * WireWriter / WireReader: little-endian serialization for frame
 * payloads.
 *
 * The remote GC protocol hand-rolls its few fixed-layout messages; the
 * shard protocol moves structured data (configs, programs, per-GE
 * streams, stat blocks) whose layouts will keep growing, so it gets a
 * real byte-buffer codec. Everything is little-endian and
 * length-prefixed; the reader throws NetError on underflow instead of
 * reading garbage, so a truncated or hostile frame fails loudly at the
 * decode boundary rather than corrupting a simulation.
 */
#ifndef HAAC_NET_WIRE_H
#define HAAC_NET_WIRE_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.h"

namespace haac {

class WireWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void
    u16(uint16_t v)
    {
        u8(uint8_t(v));
        u8(uint8_t(v >> 8));
    }

    void
    u32(uint32_t v)
    {
        u16(uint16_t(v));
        u16(uint16_t(v >> 16));
    }

    void
    u64(uint64_t v)
    {
        u32(uint32_t(v));
        u32(uint32_t(v >> 32));
    }

    /** IEEE-754 bit pattern, little-endian. */
    void f64(double v);

    /** u64 length + raw bytes. */
    void str(const std::string &s);

    /** u64 count + elements. */
    void u32vec(const std::vector<uint32_t> &v);
    void u64vec(const std::vector<uint64_t> &v);

    /** u64 bit count + packed bytes (LSB-first within each byte). */
    void bits(const std::vector<bool> &v);

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

class WireReader
{
  public:
    explicit WireReader(const std::vector<uint8_t> &buf) : buf_(buf) {}

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();
    double f64();
    /** Viewed in place: valid while the buffer lives. */
    std::string_view str();
    std::vector<uint32_t> u32vec();
    std::vector<uint64_t> u64vec();
    std::vector<bool> bits();

    /** Bytes not yet consumed. */
    size_t remaining() const { return buf_.size() - pos_; }

    /** Throws NetError unless the payload was consumed exactly. */
    void expectEnd(const char *what) const;

  private:
    void need(size_t n) const;

    const std::vector<uint8_t> &buf_;
    size_t pos_ = 0;
};

/**
 * @name Link-table stream frames (chain/link.h)
 *
 * The chained-garbling protocol interleaves two streams on one
 * transport: component tables ride the NetChannel segment framing,
 * and each linked node's label-translation tables travel as one typed
 * frame sent between channel flushes. The kind byte keeps a desynced
 * peer failing loudly at the decode boundary instead of feeding link
 * rows into the table stream.
 *
 * Layout: u8 kind, u32 node, u32 count, then count * 32 B of
 * translation-table rows (kLinkTableFrameHeaderBytes of header).
 */
/// @{
inline constexpr uint8_t kLinkTableFrameKind = 0x4c; // 'L'
inline constexpr size_t kLinkTableFrameHeaderBytes = 1 + 4 + 4;

/** Assemble one link-table frame around pre-serialized table rows. */
std::vector<uint8_t> makeLinkTableFrame(uint32_t node, uint32_t count,
                                        const uint8_t *tables,
                                        size_t table_bytes);

struct LinkTableFrame
{
    uint32_t node = 0;
    uint32_t count = 0;
    /** Offset of the first table byte within the frame. */
    size_t payloadOffset = 0;
};

/**
 * Validate kind, header, and payload size (32 B per table).
 * @throws NetError on any mismatch.
 */
LinkTableFrame parseLinkTableFrame(const std::vector<uint8_t> &frame);
/// @}

/**
 * @name Netlist-upload frame (net/server.h)
 *
 * ROADMAP arc 1: a client ships the server a circuit it has never
 * seen, as old-format Bristol text, in place of a workload-spec
 * frame. The kind byte is 0x02 (STX) — deliberately unprintable, so
 * it can never collide with the first character of a spec string
 * ("Million:32", "ChainMillSum:8", ...) sharing the request channel.
 *
 * The payload is untrusted by definition. The transport already
 * bounds it (kMaxFrameBytes); GcServer additionally pre-scans the
 * declared gate and wire counts against ServerOptions::maxGates (the
 * wire cap is 2*maxGates + 1) and then admits
 * the parsed netlist only if the circuit analyzer
 * (circuit/analyze.h) finds no errors — all before the first label
 * or key expansion is spent on it.
 *
 * Layout: u8 kind, then str (u64 length + Bristol text).
 */
/// @{
inline constexpr uint8_t kNetlistUploadFrameKind = 0x02; // STX

std::vector<uint8_t> makeNetlistUploadFrame(const std::string &bristol);

/** Cheap routing test: non-empty and leading kind byte. */
bool isNetlistUploadFrame(const std::vector<uint8_t> &frame);

/** The Bristol text, viewed in @p frame. @throws NetError on mismatch. */
std::string_view parseNetlistUploadFrame(const std::vector<uint8_t> &frame);
/// @}

} // namespace haac

#endif // HAAC_NET_WIRE_H
