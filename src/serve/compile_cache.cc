#include "serve/compile_cache.h"

#include <utility>

namespace haac {
namespace serve {

namespace {

/**
 * Incremental FNV-1a-style 64-bit hash with caller-chosen basis and
 * multiplier. The key's two passes use distinct multipliers, not just
 * distinct bases: FNV is affine in its basis, so two same-length
 * streams colliding under one basis would collide under every basis —
 * a second multiplier makes the pair genuinely independent functions.
 */
class Fnv
{
  public:
    Fnv(uint64_t basis, uint64_t prime) : h_(basis), prime_(prime) {}

    void
    u8(uint8_t v)
    {
        h_ = (h_ ^ v) * prime_;
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(uint8_t(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        // Bit-exact: configs differing only in a double field (e.g.
        // dramBandwidthScale) must not collide.
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
    uint64_t prime_;
};

void
hashInputs(Fnv &h, const Netlist &netlist, const CompileOptions &opts,
           const HaacConfig &config)
{
    // Canonical netlist serialization: shape, gates, outputs.
    h.u32(netlist.numGarblerInputs);
    h.u32(netlist.numEvaluatorInputs);
    h.u32(netlist.constOne);
    h.u32(netlist.numGates());
    for (const Gate &g : netlist.gates) {
        h.u8(uint8_t(g.op));
        h.u32(g.a);
        h.u32(g.b);
    }
    h.u32(uint32_t(netlist.outputs.size()));
    for (WireId w : netlist.outputs)
        h.u32(w);

    // Every CompileOptions field except `verify`, which checks the
    // compiled program without changing it (a verified and an
    // unverified compile are bit-identical, so they share a unit).
    h.u8(uint8_t(opts.reorder));
    h.u8(opts.esw ? 1 : 0);
    h.u32(opts.swwWires);
    h.u32(opts.segmentSize);

    // Every HaacConfig field: buildStreams runs the scheduling
    // simulation, so even pure timing knobs (latencies, queue sizes,
    // pipeline depths) shape the cached issue order.
    h.u32(config.numGes);
    h.u64(config.swwBytes);
    h.u32(config.banksPerGe);
    h.u8(uint8_t(config.dram));
    h.u8(uint8_t(config.role));
    h.u8(config.forwarding ? 1 : 0);
    h.u64(config.queueSramBytes);
    h.u64(config.writeBufferBytes);
    h.u32(config.dramLatency);
    h.f64(config.dramBandwidthScale);
    h.u32(config.fetchDecodeStages);
    h.u32(config.swwReadStages);
    h.u32(config.writebackStages);
    h.u32(config.garblerHalfGateStages);
    h.u32(config.evaluatorHalfGateStages);
    h.u32(config.xorStages);
}

} // namespace

CompileKey
CompileKey::of(const Netlist &netlist, const CompileOptions &opts,
               const HaacConfig &config)
{
    CompileKey key;
    // Pass a: the standard FNV-1a 64 basis and prime. Pass b: a
    // different basis *and* multiplier (the odd golden-ratio constant
    // splitmix64 mixes with), so the two 64-bit values are
    // independent functions of the input.
    Fnv a(0xcbf29ce484222325ull, 0x100000001b3ull);
    Fnv b(0x6c62272e07bb0142ull, 0x9e3779b97f4a7c15ull);
    hashInputs(a, netlist, opts, config);
    hashInputs(b, netlist, opts, config);
    key.h1 = a.value();
    key.h2 = b.value();
    key.gates = netlist.numGates();
    key.garblerInputs = netlist.numGarblerInputs;
    key.evaluatorInputs = netlist.numEvaluatorInputs;
    key.outputs = uint32_t(netlist.outputs.size());
    return key;
}

std::shared_ptr<const CompiledUnit>
CompileCache::compile(const Netlist &netlist, const CompileOptions &opts,
                      const HaacConfig &config, bool *hit)
{
    const auto make = [&] {
        auto unit = std::make_shared<CompiledUnit>();
        unit->program =
            compileProgram(assemble(netlist), opts, &unit->stats);
        unit->streams = buildStreams(unit->program, config);
        return std::shared_ptr<const CompiledUnit>(std::move(unit));
    };
    return lru_.getOrMake(CompileKey::of(netlist, opts, config), make, hit);
}

} // namespace serve
} // namespace haac
