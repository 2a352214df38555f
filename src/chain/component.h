/**
 * @file
 * Standard-component library for chained garbling.
 *
 * PR 8's GarblePool amortizes garbling only for circuits the server
 * has seen verbatim; this library is the other half of ROADMAP arc 2:
 * a small set of width-parameterized standard components — adder,
 * subtractor, comparator, MUX, XOR block, multiplier — each a
 * self-contained canonical Netlist with typed input/output ports.
 * Components are garbled independently of any enclosing circuit
 * (captureComponent reuses the gc/instance.h capture machinery), so a
 * pool can keep garbled ADD:32s ready before anyone has asked for the
 * circuit that will contain them; chain/link.h then solders captured
 * components into arbitrary DAGs with label-translation tables.
 *
 * Port convention: every component input bit is declared a *garbler*
 * input of the component netlist. Which party's plan input (or which
 * predecessor link) actually drives a port is a property of the
 * chaining plan, not of the component — the garbler owns all labels
 * either way, and delivery (direct label, OT, or link table) is
 * decided per port at link time.
 */
#ifndef HAAC_CHAIN_COMPONENT_H
#define HAAC_CHAIN_COMPONENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/builder.h"
#include "circuit/netlist.h"
#include "gc/instance.h"

namespace haac {
namespace chain {

enum class ComponentKind : uint8_t
{
    Add = 0, ///< a + b (mod 2^W), W outputs
    Sub = 1, ///< a - b (mod 2^W), W outputs
    Cmp = 2, ///< unsigned a < b, 1 output
    Mux = 3, ///< s ? t : f bitwise, W outputs
    Xor = 4, ///< a ^ b bitwise, W outputs (0 AND gates)
    Mul = 5, ///< a * b truncated to W bits (~W^2 ANDs)
};

/** Canonical component name ("ADD", "SUB", ...). */
const char *componentKindName(ComponentKind kind);

/** Widest component the library will build (input bits per port). */
inline constexpr uint32_t kMaxComponentWidth = 512;
/** MUL is ~W^2 gates; cap it separately so a plan can't demand 2^18. */
inline constexpr uint32_t kMaxMulWidth = 64;

/** One (kind, width) point in the component library. */
struct ComponentSpec
{
    ComponentKind kind = ComponentKind::Add;
    uint32_t width = 0;

    /** Canonical spec string, e.g. "ADD:32" (parseComponentSpec inverts). */
    std::string name() const;

    /** Empty when buildable; else why not (width bounds). */
    std::string check() const;

    /** Per-port input widths, in port order (MUX: s, t, f). */
    std::vector<uint32_t> inputWidths() const;

    /** Total input bits across ports. */
    uint32_t inputBits() const;

    /** Output bits (CMP: 1; everything else: width). */
    uint32_t outputBits() const;

    bool
    operator==(const ComponentSpec &o) const
    {
        return kind == o.kind && width == o.width;
    }

    bool
    operator<(const ComponentSpec &o) const
    {
        return kind != o.kind ? kind < o.kind : width < o.width;
    }
};

/**
 * Parse a canonical spec string ("CMP:64").
 *
 * @throws std::invalid_argument on unknown kind, missing or
 *         out-of-range width.
 */
ComponentSpec parseComponentSpec(const std::string &name);

/**
 * Emit @p spec's logic into an open builder over @p inputs (the ports
 * flattened in order, size spec.inputBits()); returns the output
 * wires. buildComponent() uses this over fresh inputs, and
 * ChainPlan::monolithic() uses it to inline the same logic into one
 * flat netlist — which is what keeps chained-vs-monolithic parity a
 * structural identity rather than a coincidence.
 */
Bits emitComponent(CircuitBuilder &cb, const ComponentSpec &spec,
                   const std::vector<Wire> &inputs);

/**
 * Build the component's canonical netlist: ports flattened in order
 * as garbler inputs, outputs in port order. Deterministic — two calls
 * with the same spec yield identical netlists.
 *
 * @throws std::invalid_argument when spec.check() is non-empty.
 */
Netlist buildComponent(const ComponentSpec &spec);

/**
 * One garbled component: a spec plus the captured garbling (seed,
 * output zero labels, tables). Like any GarbledInstance it must
 * be linked into at most one session — reuse would leak both labels
 * of every wire a second evaluator sees (the PR 5/8 invariant).
 */
struct GarbledComponent
{
    ComponentSpec spec;
    GarbledInstance inst;
};

/** Garble @p spec's netlist under @p seed and capture everything. */
GarbledComponent captureComponent(const ComponentSpec &spec,
                                  uint64_t seed);

} // namespace chain
} // namespace haac

#endif // HAAC_CHAIN_COMPONENT_H
