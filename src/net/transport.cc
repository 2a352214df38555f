#include "net/transport.h"

#include <algorithm>
#include <cstring>

namespace haac {

namespace {

constexpr uint8_t kMagic[4] = {'H', 'A', 'A', 'C'};

/** Frames up to this size are read into one allocation. */
constexpr size_t kFramePiece = size_t(1) << 20;

void
putU32(uint8_t *out, uint32_t v)
{
    out[0] = uint8_t(v);
    out[1] = uint8_t(v >> 8);
    out[2] = uint8_t(v >> 16);
    out[3] = uint8_t(v >> 24);
}

uint32_t
getU32(const uint8_t *in)
{
    return uint32_t(in[0]) | uint32_t(in[1]) << 8 |
           uint32_t(in[2]) << 16 | uint32_t(in[3]) << 24;
}

} // namespace

const char *
peerRoleName(PeerRole role)
{
    switch (role) {
    case PeerRole::Garbler:
        return "garbler";
    case PeerRole::Evaluator:
        return "evaluator";
    case PeerRole::Server:
        return "server";
    case PeerRole::ShardCoordinator:
        return "shard-coordinator";
    case PeerRole::ShardWorker:
        return "shard-worker";
    }
    return "?";
}

void
Transport::sendFrame(const uint8_t *payload, size_t n)
{
    if (n > kMaxFrameBytes)
        throw NetError("sendFrame: payload of " + std::to_string(n) +
                       " bytes exceeds the frame limit");
    uint8_t header[4];
    putU32(header, uint32_t(n));
    writeAll(header, sizeof(header));
    if (n > 0)
        writeAll(payload, n);
    countSent(sizeof(header) + n);
    ++framesSent_;
}

void
Transport::sendFrame(const std::vector<uint8_t> &payload)
{
    sendFrame(payload.data(), payload.size());
}

std::vector<uint8_t>
Transport::recvFrame()
{
    std::vector<uint8_t> payload;
    recvFrame(payload);
    return payload;
}

void
Transport::recvFrame(std::vector<uint8_t> &payload)
{
    uint8_t header[4];
    readAll(header, sizeof(header));
    const uint32_t n = getU32(header);
    if (n > kMaxFrameBytes)
        throw NetError("recvFrame: peer announced a " +
                       std::to_string(n) +
                       "-byte frame (limit " +
                       std::to_string(kMaxFrameBytes) +
                       "); stream is corrupt or not a HAAC peer");
    // The announced length is only the peer's word: what the buffer
    // already holds is filled first, and past it (or one piece) the
    // buffer grows with the bytes that have arrived (to at most four
    // times them), not ahead of them.
    size_t got = std::min<size_t>(n, payload.capacity());
    payload.resize(got);
    if (got > 0)
        readAll(payload.data(), got);
    for (; got < n; got = payload.size()) {
        payload.resize(std::min<size_t>(n, std::max(4 * got, kFramePiece)));
        readAll(payload.data() + got, payload.size() - got);
    }
    countReceived(sizeof(header) + n);
    ++framesReceived_;
}

PeerRole
Transport::handshake(PeerRole self)
{
    uint8_t hello[8];
    std::memcpy(hello, kMagic, 4);
    hello[4] = uint8_t(kVersion);
    hello[5] = uint8_t(kVersion >> 8);
    hello[6] = uint8_t(self);
    hello[7] = 0;
    writeAll(hello, sizeof(hello));
    countSent(sizeof(hello));

    uint8_t peer[8];
    readAll(peer, sizeof(peer));
    countReceived(sizeof(peer));

    if (std::memcmp(peer, kMagic, 4) != 0)
        throw NetError("handshake with " + describe() +
                       ": bad magic (peer is not a HAAC endpoint)");
    const uint16_t peer_version =
        uint16_t(peer[4]) | uint16_t(uint16_t(peer[5]) << 8);
    if (peer_version != kVersion)
        throw NetError("handshake with " + describe() +
                       ": protocol version mismatch (ours " +
                       std::to_string(kVersion) + ", peer " +
                       std::to_string(peer_version) + ")");
    if (peer[6] > uint8_t(PeerRole::ShardWorker))
        throw NetError("handshake with " + describe() +
                       ": unknown peer role " +
                       std::to_string(int(peer[6])));
    const PeerRole peer_role = PeerRole(peer[6]);
    // Garbler pairs with evaluator, a shard coordinator with a shard
    // worker; Server adapts to its client.
    auto pairOf = [](PeerRole a, PeerRole b, PeerRole x, PeerRole y) {
        return (a == x && b == y) || (a == y && b == x);
    };
    const bool compatible =
        self == PeerRole::Server || peer_role == PeerRole::Server ||
        pairOf(self, peer_role, PeerRole::Garbler, PeerRole::Evaluator) ||
        pairOf(self, peer_role, PeerRole::ShardCoordinator,
               PeerRole::ShardWorker);
    if (!compatible)
        throw NetError("handshake with " + describe() + ": a " +
                       std::string(peerRoleName(self)) +
                       " endpoint cannot pair with a " +
                       std::string(peerRoleName(peer_role)) +
                       " endpoint");
    return peer_role;
}

} // namespace haac
