/**
 * @file
 * Wire recording for the session-shape goldens (test_net, test_chain,
 * test_server): a Transport decorator that keeps every byte it moves,
 * and the one-line summary of a session side that the goldens pin.
 */
#ifndef HAAC_TESTS_SESSION_GOLDEN_H
#define HAAC_TESTS_SESSION_GOLDEN_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/remote.h"
#include "net/transport.h"

namespace haac {
namespace golden {

/** A Transport that records both directions, then forwards them. */
class RecordingTransport : public Transport
{
  public:
    explicit RecordingTransport(Transport &inner) : inner_(inner) {}

    void
    writeAll(const uint8_t *data, size_t n) override
    {
        sent.insert(sent.end(), data, data + n);
        inner_.writeAll(data, n);
    }

    void
    readAll(uint8_t *data, size_t n) override
    {
        inner_.readAll(data, n);
        received.insert(received.end(), data, data + n);
    }

    std::string
    describe() const override
    {
        return "recording " + inner_.describe();
    }

    /** Raw streams; frames only, since the goldens skip the hello. */
    std::vector<uint8_t> sent;
    std::vector<uint8_t> received;

  private:
    Transport &inner_;
};

/** Frame payloads of a recorded stream (u32 little-endian heads). */
inline std::vector<std::vector<uint8_t>>
splitFrames(const std::vector<uint8_t> &stream)
{
    std::vector<std::vector<uint8_t>> out;
    size_t at = 0;
    while (at + 4 <= stream.size()) {
        const size_t n = size_t(stream[at]) | size_t(stream[at + 1]) << 8 |
                         size_t(stream[at + 2]) << 16 |
                         size_t(stream[at + 3]) << 24;
        at += 4;
        out.emplace_back(stream.begin() + long(at),
                         stream.begin() + long(at + n));
        at += n;
    }
    return out;
}

inline void
fnv1a(uint64_t &h, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
}

/** FNV-1a over the frame lengths, each as 4 little-endian bytes. */
inline uint64_t
lengthsDigest(const std::vector<std::vector<uint8_t>> &frames)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<uint8_t> &f : frames) {
        const uint32_t n = uint32_t(f.size());
        const uint8_t le[4] = {uint8_t(n), uint8_t(n >> 8),
                               uint8_t(n >> 16), uint8_t(n >> 24)};
        fnv1a(h, le, 4);
    }
    return h;
}

/**
 * Index of the first garbler frame after the OT phase: the trailing
 * frames carry the @p post_ot_bytes of payload after it (direct
 * labels, link frames, tables and decode bits). frames.size() if no
 * frame boundary falls there.
 */
inline size_t
postOtStart(const std::vector<std::vector<uint8_t>> &frames,
            uint64_t post_ot_bytes)
{
    size_t first = frames.size();
    uint64_t bytes = 0;
    while (first > 0 && bytes < post_ot_bytes)
        bytes += frames[--first].size();
    return bytes == post_ot_bytes ? first : frames.size();
}

/**
 * FNV-1a over the garbler's frames after the OT phase. The
 * fingerprint and OT frames before them carry per-session OS
 * randomness. -1 if no frame boundary falls there.
 */
inline uint64_t
postOtDigest(const std::vector<std::vector<uint8_t>> &frames,
             uint64_t post_ot_bytes)
{
    const size_t first = postOtStart(frames, post_ot_bytes);
    if (first == frames.size())
        return ~0ull;
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = first; i < frames.size(); ++i)
        fnv1a(h, frames[i].data(), frames[i].size());
    return h;
}

/**
 * One side of a session: every byte category, the control and
 * segment counts, raw traffic each way, and digests of the frame
 * lengths each way and of the garbler→evaluator frames after the OT
 * phase (sent by the garbler, received by the evaluator).
 */
inline std::string
sessionRow(const std::string &name, bool garbler, const RemoteResult &r,
           const RecordingTransport &t, uint64_t link_bytes = 0,
           uint64_t link_frames = 0)
{
    const auto sent = splitFrames(t.sent);
    const auto received = splitFrames(t.received);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s %s: table=%llu input=%llu ot=%llu up=%llu decode=%llu "
        "link=%llu/%llu total=%llu control=%llu segs=%llu "
        "raw=%llu/%llu frames=%llu/%llu lens=%016llx/%016llx "
        "post=%016llx",
        name.c_str(), garbler ? "garbler" : "evaluator",
        (unsigned long long)r.tableBytes,
        (unsigned long long)r.inputLabelBytes,
        (unsigned long long)r.otBytes,
        (unsigned long long)r.otUplinkBytes,
        (unsigned long long)r.outputDecodeBytes,
        (unsigned long long)link_bytes, (unsigned long long)link_frames,
        (unsigned long long)r.totalBytes,
        (unsigned long long)r.controlBytes,
        (unsigned long long)r.tableSegments,
        (unsigned long long)t.rawBytesSent(),
        (unsigned long long)t.rawBytesReceived(),
        (unsigned long long)t.framesSent(),
        (unsigned long long)t.framesReceived(),
        (unsigned long long)lengthsDigest(sent),
        (unsigned long long)lengthsDigest(received),
        (unsigned long long)postOtDigest(garbler ? sent : received,
                                         r.totalBytes - r.otBytes));
    return buf;
}

} // namespace golden
} // namespace haac

#endif // HAAC_TESTS_SESSION_GOLDEN_H
