/**
 * @file
 * NetChannel: the gc/channel.h interface over a Transport.
 *
 * The protocol engines (garbler, evaluator, OT) speak ByteChannel;
 * NetChannel carries that byte stream across a Transport in frames.
 * Writes coalesce into an output buffer that flushes as one frame
 * whenever it reaches the flush threshold (the remote protocol sets it
 * to a segment's worth of garbled tables). Reads refill from whole
 * frames and serve any request size across frame boundaries, so
 * sender segmentation never constrains receiver parsing. The table
 * stream itself bypasses the channel's copies (net/table_stream.h)
 * with the frames a segment threshold would cut, and hands the
 * channel back whatever it left unread (swapInput()).
 *
 * A read with unflushed output flushes first: a protocol turnaround
 * (send a query, await the answer) can therefore never deadlock on
 * bytes stuck in the write buffer.
 *
 * The inherited ByteChannel counters see *payload* bytes only; frame
 * headers and handshakes are visible on the Transport's raw counters.
 * That split is what lets RemoteResult count payload categories
 * exactly while reports still see the raw wire.
 */
#ifndef HAAC_NET_NET_CHANNEL_H
#define HAAC_NET_NET_CHANNEL_H

#include <cstddef>
#include <vector>

#include "gc/channel.h"
#include "net/transport.h"

namespace haac {

class NetChannel : public ByteChannel
{
  public:
    /** Default write-coalescing threshold (bytes). */
    static constexpr size_t kDefaultFlushBytes = 64 * 1024;

    explicit NetChannel(Transport &transport,
                        size_t flush_threshold = kDefaultFlushBytes);

    ~NetChannel() override;

    /** Send buffered bytes as one frame now (no-op when empty). */
    void flush() override;

    Transport &transport() { return *transport_; }

    /**
     * Trade the received frame being read, and the read position in
     * it, for @p frame and @p cursor. A table-stream reader takes the
     * channel's unread bytes this way and gives back what it left.
     */
    void swapInput(std::vector<uint8_t> &frame, size_t &cursor);

  protected:
    void writeBytes(const uint8_t *data, size_t n) override;
    void readBytes(uint8_t *data, size_t n) override;

  private:
    Transport *transport_;
    const size_t flushThreshold_;
    std::vector<uint8_t> outBuffer_;
    std::vector<uint8_t> inBuffer_;
    size_t inCursor_ = 0;
};

} // namespace haac

#endif // HAAC_NET_NET_CHANNEL_H
