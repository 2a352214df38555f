/**
 * @file
 * Byte channels with traffic accounting: the interface the protocol
 * engines speak, plus the in-process implementation.
 *
 * GCs are data intensive (paper §1): 32 B of table per AND gate plus a
 * 16 B label per input. The protocol runner moves every byte through a
 * ByteChannel so tests and benchmarks can account for communication
 * exactly as a two-machine deployment would see it. Channel is the
 * in-process FIFO used by the single-process baseline; NetChannel
 * (net/net_channel.h) carries the same interface over a real Transport
 * so the identical protocol code runs across two machines.
 */
#ifndef HAAC_GC_CHANNEL_H
#define HAAC_GC_CHANNEL_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/label.h"

namespace haac {

/**
 * One endpoint of a byte stream with per-endpoint counters.
 *
 * Typed helpers (labels, bits) are defined once here in terms
 * of the raw byte hooks, so every implementation serializes protocol
 * messages identically — that is what makes in-process and on-the-wire
 * byte accounting directly comparable.
 */
class ByteChannel
{
  public:
    virtual ~ByteChannel() = default;

    void
    sendBytes(const uint8_t *data, size_t n)
    {
        writeBytes(data, n);
        bytesSent_ += n;
    }

    void
    recvBytes(uint8_t *data, size_t n)
    {
        readBytes(data, n);
        bytesReceived_ += n;
    }

    void
    sendLabel(const Label &l)
    {
        uint8_t buf[kLabelBytes];
        l.toBytes(buf);
        sendBytes(buf, sizeof(buf));
    }

    Label
    recvLabel()
    {
        uint8_t buf[kLabelBytes];
        recvBytes(buf, sizeof(buf));
        return Label::fromBytes(buf);
    }

    void
    sendBit(bool b)
    {
        uint8_t v = b ? 1 : 0;
        sendBytes(&v, 1);
    }

    bool
    recvBit()
    {
        uint8_t v = 0;
        recvBytes(&v, 1);
        return v != 0;
    }

    /** Push any buffered writes to the peer (no-op for in-process). */
    virtual void flush() {}

    /** @name Payload accounting (protocol bytes, not transport framing) */
    /// @{
    size_t bytesSent() const { return bytesSent_; }
    size_t bytesReceived() const { return bytesReceived_; }
    /// @}

  protected:
    /** Deliver @p n bytes toward the peer (may buffer until flush()). */
    virtual void writeBytes(const uint8_t *data, size_t n) = 0;
    /** Block until @p n bytes are available and copy them out. */
    virtual void readBytes(uint8_t *data, size_t n) = 0;

  private:
    size_t bytesSent_ = 0;
    size_t bytesReceived_ = 0;
};

/** In-process one-directional FIFO byte channel. */
class Channel : public ByteChannel
{
  public:
    size_t pending() const { return buffer_.size() - head_; }

  protected:
    void
    writeBytes(const uint8_t *data, size_t n) override
    {
        buffer_.insert(buffer_.end(), data, data + n);
    }

    void
    readBytes(uint8_t *data, size_t n) override
    {
        const size_t avail = buffer_.size() - head_;
        if (avail < n)
            throw std::runtime_error(
                "channel underflow: requested " + std::to_string(n) +
                " bytes but only " + std::to_string(avail) +
                " buffered");
        if (n > 0)
            std::memcpy(data, buffer_.data() + head_, n);
        head_ += n;
        // Reclaim the consumed prefix once it dominates the buffer, so
        // the channel stays O(bytes) overall without sliding on every
        // receive.
        if (head_ >= 4096 && head_ * 2 >= buffer_.size()) {
            buffer_.erase(buffer_.begin(),
                          buffer_.begin() + long(head_));
            head_ = 0;
        }
    }

  private:
    std::vector<uint8_t> buffer_;
    size_t head_ = 0; ///< consumed prefix of buffer_
};

/** The two directed channels of a two-party session. */
struct DuplexChannel
{
    Channel toEvaluator;
    Channel toGarbler;

    size_t
    totalBytes() const
    {
        return toEvaluator.bytesSent() + toGarbler.bytesSent();
    }
};

} // namespace haac

#endif // HAAC_GC_CHANNEL_H
