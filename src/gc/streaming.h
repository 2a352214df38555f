/**
 * @file
 * Streaming garble/evaluate: gate-at-a-time processing with tables
 * delivered through callbacks instead of materialized vectors.
 *
 * This is how a real deployment pipelines: the Garbler streams each
 * AND table onto the wire the moment it is produced, and the Evaluator
 * consumes them in order — exactly the producer/consumer discipline
 * HAAC's table queues implement in hardware (§3.1.2). Results are
 * bit-identical to the batch Garbler/Evaluator classes.
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
 * zero label per primary input in wire order. Garbler,
 * StreamingGarbler and GarbledInstance all take them from
 * expandInputLabels(), so a seed alone pins a garbling's input labels.
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

/** Outcome of a streaming garble: everything but the tables. */
struct StreamedGarbling
{
    /** The global offset and the primary inputs' zero labels. */
    InputLabels inputs;
    /** Zero labels of the primary outputs, for decode bits. */
    std::vector<Label> outputZeroLabels;
    uint64_t tablesEmitted = 0;
};

/**
 * Garble @p netlist, pushing each table to @p sink as it is created.
 *
 * Uses O(wires) label memory but never stores tables; deterministic
 * and bit-identical to Garbler(netlist, seed).
 */
StreamedGarbling garbleStreaming(const Netlist &netlist, uint64_t seed,
                                 const TableSink &sink);

/**
 * Two-phase streaming garbler, for protocols that must transfer input
 * labels *before* the table stream starts (a remote evaluator needs
 * its input labels up front so it can consume tables as they arrive).
 *
 * Construction draws the global offset and all primary-input labels
 * (expandInputLabels(), the same draw as Garbler / garbleStreaming, so
 * the result is bit-identical) and run() then garbles the gates,
 * emitting each table the moment it exists.
 */
class StreamingGarbler
{
  public:
    StreamingGarbler(const Netlist &netlist, uint64_t seed);

    const Netlist &netlist() const { return *netlist_; }
    const Label &globalOffset() const { return r_; }

    /** Zero-label of a primary input wire (w < numInputs()). */
    const Label &inputZeroLabel(WireId w) const { return zero_[w]; }

    /** Active label encoding @p value on primary input wire @p w. */
    Label
    activeLabel(WireId w, bool value) const
    {
        return value ? zero_[w] ^ r_ : zero_[w];
    }

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
    Label r_;
    std::vector<Label> zero_; ///< inputs at ctor; all wires after run()
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
