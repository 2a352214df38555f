#include "chain/component.h"

#include <stdexcept>

#include "circuit/builder.h"
#include "circuit/stdlib.h"

namespace haac {
namespace chain {

const char *
componentKindName(ComponentKind kind)
{
    switch (kind) {
    case ComponentKind::Add:
        return "ADD";
    case ComponentKind::Sub:
        return "SUB";
    case ComponentKind::Cmp:
        return "CMP";
    case ComponentKind::Mux:
        return "MUX";
    case ComponentKind::Xor:
        return "XOR";
    case ComponentKind::Mul:
        return "MUL";
    }
    return "?";
}

std::string
ComponentSpec::name() const
{
    return std::string(componentKindName(kind)) + ":" +
           std::to_string(width);
}

std::string
ComponentSpec::check() const
{
    if (width == 0)
        return "component " + name() + ": width must be >= 1";
    const uint32_t cap =
        kind == ComponentKind::Mul ? kMaxMulWidth : kMaxComponentWidth;
    if (width > cap)
        return "component " + name() + ": width exceeds " +
               std::to_string(cap);
    return "";
}

std::vector<uint32_t>
ComponentSpec::inputWidths() const
{
    if (kind == ComponentKind::Mux)
        return {1, width, width}; // s, t, f
    return {width, width};        // a, b
}

uint32_t
ComponentSpec::inputBits() const
{
    uint32_t total = 0;
    for (uint32_t w : inputWidths())
        total += w;
    return total;
}

uint32_t
ComponentSpec::outputBits() const
{
    return kind == ComponentKind::Cmp ? 1 : width;
}

Bits
emitComponent(CircuitBuilder &cb, const ComponentSpec &spec,
              const std::vector<Wire> &inputs)
{
    const std::string err = spec.check();
    if (!err.empty())
        throw std::invalid_argument(err);
    if (inputs.size() != spec.inputBits())
        throw std::invalid_argument(
            "emitComponent: " + spec.name() + " takes " +
            std::to_string(spec.inputBits()) + " input bits, got " +
            std::to_string(inputs.size()));

    const uint32_t w = spec.width;
    auto port = [&](size_t at, uint32_t n) {
        return Bits(inputs.begin() + long(at),
                    inputs.begin() + long(at + n));
    };
    switch (spec.kind) {
    case ComponentKind::Add:
        return addBits(cb, port(0, w), port(w, w));
    case ComponentKind::Sub:
        return subBits(cb, port(0, w), port(w, w));
    case ComponentKind::Cmp:
        return Bits{ltUnsigned(cb, port(0, w), port(w, w))};
    case ComponentKind::Mux:
        return muxBits(cb, inputs[0], port(1, w), port(1 + w, w));
    case ComponentKind::Xor:
        return xorBits(cb, port(0, w), port(w, w));
    case ComponentKind::Mul:
        return mulBits(cb, port(0, w), port(w, w), w);
    }
    throw std::invalid_argument("emitComponent: unknown kind");
}

Netlist
buildComponent(const ComponentSpec &spec)
{
    CircuitBuilder cb;
    const std::vector<Wire> inputs = cb.garblerInputs(spec.inputBits());
    cb.addOutputs(emitComponent(cb, spec, inputs));
    return cb.build();
}

GarbledComponent
captureComponent(const ComponentSpec &spec, uint64_t seed)
{
    return GarbledComponent{spec,
                            captureGarbling(buildComponent(spec), seed)};
}

} // namespace chain
} // namespace haac
