/**
 * @file
 * The netlist gate walk behind StreamingGarbler::run and
 * evaluateStreaming (gc/streaming.h): XOR gates in place, each AND
 * through a kernel the caller supplies. Private to src/gc.
 *
 * The walk is a header template so that gc/key_stream.cc can
 * instantiate it inside its VAES-targeted functions with the stored-key
 * kernels inlined, while gc/streaming.cc instantiates it on the
 * baseline ISA with garbleAnd()/evaluateAnd(). The two cursors below
 * are how both walks meet their segment sink or source: one virtual
 * call per segment, none per table.
 */
#ifndef HAAC_GC_GATE_WALK_H
#define HAAC_GC_GATE_WALK_H

#include <cstdint>

#include "circuit/netlist.h"
#include "crypto/label.h"
#include "gc/streaming.h"

namespace haac {

/**
 * Walk @p netlist's gates in order over @p labels (one per wire; the
 * primary inputs' set on entry, every wire's on return). An AND's
 * output label is @p and_gate(a, b) of its input labels; ANDs reach
 * the kernel in netlist order, so a kernel can number them itself.
 */
template <class AndGate>
inline void
walkGates(const Netlist &netlist, Label *labels, AndGate &&and_gate)
{
    const Gate *gates = netlist.gates.data();
    const uint32_t base = netlist.numInputs();
    for (uint32_t g = 0; g < netlist.numGates(); ++g) {
        const Gate &gate = gates[g];
        if (gate.op == GateOp::Xor)
            labels[base + g] = labels[gate.a] ^ labels[gate.b];
        else
            labels[base + g] = and_gate(labels[gate.a], labels[gate.b]);
    }
}

/** A garbling walk's place in its sink's current segment. */
class SegmentWriter
{
  public:
    explicit SegmentWriter(TableSegmentSink &sink)
        : sink_(sink), segment_(sink.segmentTables())
    {}

    /** Where the next table goes; call written() once it is there. */
    GarbledTable &
    slot()
    {
        if (used_ == 0)
            buffer_ = sink_.lend();
        return buffer_[used_];
    }

    void
    written()
    {
        if (++used_ == segment_) {
            sink_.full(used_);
            used_ = 0;
        }
    }

    /** Hand over a partly filled last segment. */
    void
    finish()
    {
        if (used_ > 0)
            sink_.full(used_);
        used_ = 0;
    }

  private:
    TableSegmentSink &sink_;
    const size_t segment_;
    GarbledTable *buffer_ = nullptr;
    size_t used_ = 0;
};

/** An evaluation walk's place in its source's current run. */
class SegmentReader
{
  public:
    explicit SegmentReader(TableSegmentSource &source) : source_(source) {}

    /** The next table's wire bytes. */
    const uint8_t *
    next()
    {
        if (left_ == 0)
            at_ = source_.next(left_);
        --left_;
        const uint8_t *table = at_;
        at_ += kTableBytes;
        return table;
    }

  private:
    TableSegmentSource &source_;
    const uint8_t *at_ = nullptr;
    size_t left_ = 0;
};

} // namespace haac

#endif // HAAC_GC_GATE_WALK_H
