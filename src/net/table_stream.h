/**
 * @file
 * The table phase of a remote session on the wire: the garbler's walk
 * writes its tables into segment frames, the evaluator's walk reads
 * them in place out of the frames that arrive, and on a long stream a
 * thread of each side's own does that side's socket I/O, so the walks
 * overlap the sends and receives instead of waiting in them.
 *
 * Frames are exactly those of a NetChannel whose flush threshold is a
 * segment: one frame per segmentTables tables, the last one short.
 * The runners in net/remote.cc own one writer or reader per node of a
 * session and finish() it before they touch the transport again or
 * read its counters; an I/O thread lives only between the two. An
 * error on an I/O thread reaches the walk's thread as the same
 * exception at its next hand-over (lend(), next()) or in finish().
 */
#ifndef HAAC_NET_TABLE_STREAM_H
#define HAAC_NET_TABLE_STREAM_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "gc/streaming.h"
#include "net/net_channel.h"
#include "net/transport.h"

namespace haac {

/**
 * The garbler's table stream: each full segment goes out as one frame.
 * With @p threaded, a writer thread sends a segment while the walk
 * fills the other of two segment buffers; otherwise the walk's thread
 * sends each segment when it is full.
 */
class TableFrameWriter final : public TableSegmentSink
{
  public:
    TableFrameWriter(Transport &transport, size_t segment_tables,
                     bool threaded);
    /** Stops the writer thread, dropping segments not yet sent. */
    ~TableFrameWriter() override;

    GarbledTable *lend() override;
    void full(size_t count) override;

    /** Wait until every segment is sent and stop the writer thread. */
    void finish();

  private:
    struct Writer;

    Transport &transport_;
    std::vector<GarbledTable> buffer_; ///< the unthreaded segment
    std::unique_ptr<Writer> writer_;
};

/** Send @p tables as segment frames from the calling thread. */
void sendTableFrames(Transport &transport,
                     const std::vector<GarbledTable> &tables,
                     size_t segment_tables);

/**
 * The evaluator's table stream: @p tables tables read in place from
 * the frames that carry them, a frame's run at a time (a table split
 * across two frames is gathered into a copy). It first reads what
 * @p chan holds unread and, in finish(), hands back what the stream
 * left of its last frame, so bytes a garbler sent after the tables in
 * the same frame (its decode bits) are still read from the channel.
 * With @p threaded, a reader thread receives up to two frames ahead
 * of the walk, and never a frame past the stream's bytes.
 */
class TableFrameReader final : public TableSegmentSource
{
  public:
    TableFrameReader(NetChannel &chan, uint64_t tables, bool threaded);
    /** Stops the reader thread (after a failure). */
    ~TableFrameReader() override;

    const uint8_t *next(size_t &count) override;

    /** Stop the reader thread and return the unread bytes to the
     *  channel; every table must have been read. */
    void finish();

  private:
    struct Reader;

    void fetch();

    NetChannel &chan_;
    std::vector<uint8_t> frame_;
    size_t cursor_ = 0;
    uint64_t tablesLeft_;
    uint8_t split_[kTableBytes];
    std::unique_ptr<Reader> reader_;
};

} // namespace haac

#endif // HAAC_NET_TABLE_STREAM_H
