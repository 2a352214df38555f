/**
 * @file
 * Streaming garble/evaluate: gate-at-a-time processing with tables
 * moved a segment at a time instead of materialized per circuit.
 *
 * This is how a real deployment pipelines: the Garbler writes each AND
 * table straight into the segment that goes on the wire next, and the
 * Evaluator reads them in order, in place, from the segment that came
 * in — the producer/consumer discipline HAAC's table queues implement
 * in hardware (§3.1.2). StreamingGarbler and evaluateStreaming() are
 * the library's only netlist gate walks; everything that garbles or
 * evaluates a whole circuit goes through them. Their per-table
 * TableSink/TableSource overloads are adapters over the segment ones.
 * On VAES-512 hosts the walks hand their gates to gc/key_stream.h,
 * which expands the tweak keys ahead of the gates (same bytes).
 */
#ifndef HAAC_GC_STREAMING_H
#define HAAC_GC_STREAMING_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/label.h"

namespace haac {

/** Receives each AND gate's table, in gate order. */
using TableSink = std::function<void(const GarbledTable &)>;

/** Supplies the next table on demand, in gate order. */
using TableSource = std::function<GarbledTable()>;

// A table's wire bytes are its memory bytes: Label::toBytes() copies
// lo then hi as stored, and a table is {tg, te} back to back. Segment
// buffers are therefore sent, and received tables read, as they lie.
static_assert(sizeof(GarbledTable) == kTableBytes,
              "GarbledTable must be its 32 wire bytes, unpadded");

/**
 * Where a garbling walk puts its tables, a segment at a time: the walk
 * writes each table into the buffer lend() gave it and hands the
 * buffer back with full() once it holds segmentTables() tables (fewer
 * only for the stream's last segment). A sink sees no call for a
 * circuit without ANDs.
 */
class TableSegmentSink
{
  public:
    explicit TableSegmentSink(size_t segment_tables)
        : segment_(segment_tables > 0 ? segment_tables : 1)
    {}
    virtual ~TableSegmentSink() = default;

    size_t segmentTables() const { return segment_; }

    /** Room for segmentTables() tables, filled in gate order. */
    virtual GarbledTable *lend() = 0;
    /** The last lent buffer holds its first @p count tables (>= 1). */
    virtual void full(size_t count) = 0;

  private:
    size_t segment_;
};

/**
 * Where an evaluation walk reads its tables: runs of them in their
 * wire layout, read in place (no alignment is promised). The walk
 * asks again only after it consumed the whole previous run, and never
 * for more tables than its circuit has ANDs.
 */
class TableSegmentSource
{
  public:
    virtual ~TableSegmentSource() = default;

    /**
     * The next @p count >= 1 tables of the stream, contiguous and valid
     * until the next call.
     */
    virtual const uint8_t *next(size_t &count) = 0;
};

/**
 * The labels a garbling draws from its seed before any gate: the
 * global offset R (lsb forced to 1 for point-and-permute), then one
 * zero label per primary input in wire order. StreamingGarbler and
 * GarbledInstance both take them from expandInputLabels(), so a seed
 * alone pins a garbling's input labels.
 */
struct InputLabels
{
    Label offset;
    /** Zero labels of primary inputs (wires [0, numInputs)). */
    std::vector<Label> zero;

    /** Active label encoding @p value on primary input wire @p w. */
    Label
    activeLabel(WireId w, bool value) const
    {
        return value ? zero[w] ^ offset : zero[w];
    }
};

/** The offset and the first @p num_inputs input zero labels of @p seed. */
InputLabels expandInputLabels(uint64_t seed, size_t num_inputs);

/**
 * Two-phase streaming garbler, for protocols that must transfer input
 * labels *before* the table stream starts (a remote evaluator needs
 * its input labels up front so it can consume tables as they arrive).
 *
 * Construction draws the global offset and all primary-input labels
 * (expandInputLabels(), the same draw a GarbledInstance re-derives
 * from its seed) and run() then garbles the gates, emitting each table
 * the moment it exists.
 */
class StreamingGarbler
{
  public:
    StreamingGarbler(const Netlist &netlist, uint64_t seed);

    /** The global offset and the primary inputs' zero labels. */
    const InputLabels &inputs() const { return inputs_; }

    const Netlist &netlist() const { return *netlist_; }

    /**
     * Garble every gate in order, writing AND tables into @p sink's
     * segments.
     *
     * Callable once; afterwards the output accessors below are valid.
     */
    void run(TableSegmentSink &sink);

    /** run() handing each table to @p sink in order. */
    void run(const TableSink &sink);

    /** @name Valid after run() */
    /// @{
    const std::vector<Label> &outputZeroLabels() const { return outZero_; }
    uint64_t tablesEmitted() const { return tablesEmitted_; }

    /** Output decode bit i (lsb of the output's zero label). */
    bool
    decodeBit(size_t i) const
    {
        return outZero_[i].lsb();
    }
    /// @}

  private:
    const Netlist *netlist_;
    InputLabels inputs_;
    std::vector<Label> zero_; ///< every wire's zero label, set by run()
    std::vector<Label> outZero_;
    uint64_t tablesEmitted_ = 0;
    bool ran_ = false;
};

/**
 * Evaluate with tables read in order from @p source's runs.
 *
 * @return active labels of the primary outputs.
 */
std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  TableSegmentSource &source);

/** evaluateStreaming() pulling one table at a time from @p source. */
std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source);

} // namespace haac

#endif // HAAC_GC_STREAMING_H
