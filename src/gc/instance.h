/**
 * @file
 * GarbledInstance: one complete garbling, captured for later replay.
 *
 * The two-phase StreamingGarbler exists so a live protocol can ship
 * input labels before the tables; a GarbledInstance is the same
 * artifact decoupled from any wire, produced by running the garbler
 * into a capturing sink. The serving layer's pools (serve/pool.h,
 * serve/component_pool.h) build these on background threads ahead of
 * demand, and runRemoteGarbler's instance overload (net/remote.h)
 * replays one to a remote evaluator with byte-for-byte the traffic of
 * an inline garbling.
 *
 * An instance stores what the seed cannot cheaply give back: the
 * tables and the output zero labels (the end of the gate walk). The
 * global offset and the input zero labels are the first labels the
 * seed's PRG draws (expandInputLabels(), gc/streaming.h), so the
 * instance keeps the seed instead and a runner expands them once per
 * session with inputLabels(). That halves a small pooled item: a
 * Million:32 instance holds 1,052 bytes instead of the 2,096 that
 * storing its input labels would take.
 *
 * Security: an instance is one garbling — labels, offset, and table
 * tweak pads are all derived from its seed, so holding the seed is
 * holding the labels. Replaying the same instance to two evaluators
 * reuses labels across sessions, the same leak as reusing an OT seed
 * across sessions; every instance must therefore be served at most
 * once (the pool pops, never peeks).
 */
#ifndef HAAC_GC_INSTANCE_H
#define HAAC_GC_INSTANCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "crypto/label.h"
#include "gc/streaming.h"

namespace haac {

struct GarbledInstance
{
    /** The garbling's seed; the offset and input labels derive from it. */
    uint64_t seed = 0;
    /** Primary inputs of the captured netlist (wires [0, numInputs)). */
    uint32_t numInputs = 0;
    /** Zero labels of the primary outputs, for decode bits. */
    std::vector<Label> outputZero;
    /** All AND-gate tables, in gate (= stream) order. */
    std::vector<GarbledTable> tables;

    /** The global offset and every input zero label, from the seed. */
    InputLabels
    inputLabels() const
    {
        return expandInputLabels(seed, numInputs);
    }

    /**
     * Active label encoding @p value on primary input wire @p w,
     * re-derived from the seed (the first w + 1 input labels); runners
     * that need many labels call inputLabels() once instead.
     */
    Label
    activeLabel(WireId w, bool value) const
    {
        return expandInputLabels(seed, size_t(w) + 1).activeLabel(w, value);
    }

    /** Output decode bit i (lsb of the output's zero label). */
    bool
    decodeBit(size_t i) const
    {
        return outputZero[i].lsb();
    }

    /** Resident payload: seed, input count, labels and tables. */
    size_t byteSize() const;
};

/**
 * Garble @p netlist under @p seed and capture everything.
 *
 * Runs StreamingGarbler into a capturing sink, so a captured-then-
 * replayed session matches an inline one at the same seed exactly.
 */
GarbledInstance captureGarbling(const Netlist &netlist, uint64_t seed);

} // namespace haac

#endif // HAAC_GC_INSTANCE_H
