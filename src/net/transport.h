/**
 * @file
 * Transport: the byte-stream boundary of the networked two-party
 * runtime.
 *
 * A Transport is one endpoint of a reliable, full-duplex byte stream.
 * Implementations supply blocking raw I/O (TcpTransport over POSIX
 * sockets, LoopbackTransport over in-memory queues); this base class
 * layers on the two things every HAAC peer speaks:
 *
 *  - *Frames*: length-prefixed messages (u32 little-endian payload
 *    length, then the payload). The remote protocol ships garbled
 *    tables in multi-table segment frames, so framing overhead is
 *    4 B per segment, not per table.
 *  - *Handshake*: an 8-byte hello ("HAAC", u16 version, u8 role,
 *    u8 reserved) exchanged before any frame. Version skew and
 *    role collisions (two garblers) fail fast with a NetError
 *    instead of corrupting a stream mid-protocol.
 *
 * Raw byte counters (headers included) sit here so benchmarks can
 * report true wire bytes next to the protocol's payload accounting.
 */
#ifndef HAAC_NET_TRANSPORT_H
#define HAAC_NET_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace haac {

/** Any transport-layer failure: connect, timeout, EOF, bad peer. */
struct NetError : std::runtime_error
{
    explicit NetError(const std::string &what) : std::runtime_error(what)
    {}
};

/** Handshake role byte. */
enum class PeerRole : uint8_t
{
    Garbler = 0,
    Evaluator = 1,
    Server = 2, ///< role decided per session request, after handshake
    ShardCoordinator = 3, ///< dispatches shard jobs (src/shard)
    ShardWorker = 4,      ///< simulates one shard per job
};

const char *peerRoleName(PeerRole role);

class Transport
{
  public:
    /**
     * Protocol version spoken by this build (hello.version).
     * v2: 37-byte fingerprint (otMode byte) + the real-OT phase.
     * v3: 38-byte fingerprint (otCached byte) + multi-session
     * connections with base-OT caching — mixed-version peers must
     * fail the handshake, not desync mid-stream.
     */
    static constexpr uint16_t kVersion = 3;
    /** Refuse frames larger than this (corrupt/hostile length prefix). */
    static constexpr uint32_t kMaxFrameBytes = 1u << 30;

    virtual ~Transport() = default;

    /** @name Raw stream (implementations) */
    /// @{
    /** Write all @p n bytes; throws NetError on failure. */
    virtual void writeAll(const uint8_t *data, size_t n) = 0;
    /** Read exactly @p n bytes; throws NetError on EOF/timeout. */
    virtual void readAll(uint8_t *data, size_t n) = 0;
    /** Human-readable endpoint description for errors and reports. */
    virtual std::string describe() const = 0;
    /// @}

    /** @name Framing */
    /// @{
    void sendFrame(const uint8_t *payload, size_t n);
    void sendFrame(const std::vector<uint8_t> &payload);
    std::vector<uint8_t> recvFrame();
    /**
     * recvFrame() into @p payload, reusing its capacity: a stream of
     * like-sized frames allocates once. Past that capacity the buffer
     * grows as recvFrame()'s does, with the bytes that have arrived.
     */
    void recvFrame(std::vector<uint8_t> &payload);
    /// @}

    /**
     * Exchange hellos and validate the peer.
     *
     * Both sides call this once, each declaring its own role; the
     * peer's role is returned. Throws NetError on bad magic, version
     * skew, or incompatible roles (garbler–garbler etc.; Server pairs
     * with anything).
     */
    PeerRole handshake(PeerRole self);

    /** @name Wire accounting (includes frame headers and hellos) */
    /// @{
    uint64_t rawBytesSent() const { return rawSent_; }
    uint64_t rawBytesReceived() const { return rawReceived_; }
    uint64_t framesSent() const { return framesSent_; }
    uint64_t framesReceived() const { return framesReceived_; }
    /// @}

  protected:
    /** Implementations add what they move through writeAll/readAll. */
    void countSent(size_t n) { rawSent_ += n; }
    void countReceived(size_t n) { rawReceived_ += n; }

  private:
    uint64_t rawSent_ = 0;
    uint64_t rawReceived_ = 0;
    uint64_t framesSent_ = 0;
    uint64_t framesReceived_ = 0;
};

} // namespace haac

#endif // HAAC_NET_TRANSPORT_H
