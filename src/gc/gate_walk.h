/**
 * @file
 * The netlist gate walk behind StreamingGarbler::run and
 * evaluateStreaming (gc/streaming.h): XOR gates in place, each AND
 * through a kernel the caller supplies. Private to src/gc.
 *
 * The walk is a header template so that gc/key_stream.cc can
 * instantiate it inside its VAES-targeted functions with the stored-key
 * kernels inlined, while gc/streaming.cc instantiates it on the
 * baseline ISA with garbleAnd()/evaluateAnd().
 */
#ifndef HAAC_GC_GATE_WALK_H
#define HAAC_GC_GATE_WALK_H

#include <cstdint>

#include "circuit/netlist.h"
#include "crypto/label.h"

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

} // namespace haac

#endif // HAAC_GC_GATE_WALK_H
