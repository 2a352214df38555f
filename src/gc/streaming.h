/**
 * @file
 * Streaming garble/evaluate: gate-at-a-time processing with tables
 * delivered through callbacks instead of materialized vectors.
 *
 * This is how a real deployment pipelines: the Garbler streams each
 * AND table onto the wire the moment it is produced, and the Evaluator
 * consumes them in order — exactly the producer/consumer discipline
 * HAAC's table queues implement in hardware (§3.1.2). StreamingGarbler
 * and evaluateStreaming() are the library's only netlist gate walks;
 * everything that garbles or evaluates a whole circuit goes through
 * them. On VAES-512 hosts they hand their gates to gc/key_stream.h,
 * which expands the tweak keys ahead of the gates (same bytes).
 */
#ifndef HAAC_GC_STREAMING_H
#define HAAC_GC_STREAMING_H

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

    /**
     * Garble every gate in order, streaming AND tables to @p sink.
     *
     * Callable once; afterwards the output accessors below are valid.
     */
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
 * Evaluate with tables pulled on demand from @p source (in order).
 *
 * @return active labels of the primary outputs.
 */
std::vector<Label>
evaluateStreaming(const Netlist &netlist,
                  const std::vector<Label> &input_labels,
                  const TableSource &source);

} // namespace haac

#endif // HAAC_GC_STREAMING_H
