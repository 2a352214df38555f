#include "chain/workloads.h"

#include <stdexcept>

#include "circuit/spec.h"
#include "crypto/prg.h"

namespace haac {
namespace chain {

namespace {

/** Bits needed to hold values up to @p v. */
uint32_t
bitsFor(uint32_t v)
{
    uint32_t n = 1;
    while ((uint64_t(1) << n) <= v)
        ++n;
    return n;
}

std::vector<InputSource>
garblerRange(uint32_t at, uint32_t n)
{
    std::vector<InputSource> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(InputSource::garbler(at + i));
    return v;
}

std::vector<InputSource>
evaluatorRange(uint32_t at, uint32_t n)
{
    std::vector<InputSource> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(InputSource::evaluator(at + i));
    return v;
}

std::vector<InputSource>
linkRange(uint32_t node, uint32_t n)
{
    std::vector<InputSource> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        v.push_back(InputSource::link(node, i));
    return v;
}

void
append(std::vector<InputSource> &dst, std::vector<InputSource> src)
{
    dst.insert(dst.end(), src.begin(), src.end());
}

/** a0 + a1 < b0 + b1: the millionaires compare their *totals*. */
ChainPlan
millSumPlan(uint32_t w)
{
    ChainPlan plan;
    plan.name = "ChainMillSum:" + std::to_string(w);
    plan.garblerInputs = 2 * w;
    plan.evaluatorInputs = 2 * w;

    // Node 0: sumA = a0 + a1 (all garbler-driven ports).
    plan.nodes.push_back({ComponentKind::Add, w});
    std::vector<InputSource> s0 = garblerRange(0, w);
    append(s0, garblerRange(w, w));
    plan.sources.push_back(std::move(s0));

    // Node 1: sumB = b0 + b1 (all evaluator-driven, all via OT).
    plan.nodes.push_back({ComponentKind::Add, w});
    std::vector<InputSource> s1 = evaluatorRange(0, w);
    append(s1, evaluatorRange(w, w));
    plan.sources.push_back(std::move(s1));

    // Node 2: sumA < sumB — every port a link.
    plan.nodes.push_back({ComponentKind::Cmp, w});
    std::vector<InputSource> s2 = linkRange(0, w);
    append(s2, linkRange(1, w));
    plan.sources.push_back(std::move(s2));

    plan.outputs = {{2, 0}};
    return plan;
}

/** popcount(x ^ y) < K, K a private garbler threshold. */
ChainPlan
hammCmpPlan(uint32_t w)
{
    const uint32_t p = bitsFor(w); // accumulator width
    ChainPlan plan;
    plan.name = "ChainHammCmp:" + std::to_string(w);
    plan.garblerInputs = w + p; // x, then threshold K
    plan.evaluatorInputs = w;   // y

    // Node 0: d = x ^ y (free: zero AND gates, still a component).
    plan.nodes.push_back({ComponentKind::Xor, w});
    std::vector<InputSource> s0 = garblerRange(0, w);
    append(s0, evaluatorRange(0, w));
    plan.sources.push_back(std::move(s0));

    // Nodes 1..w-1: acc += d[i], each bit zero-extended to p bits.
    // (A balanced tree would use fewer gate-levels; the serial chain
    // maximizes link pressure, which is what the tests want.)
    auto bitOperand = [&](uint32_t bit) {
        std::vector<InputSource> v;
        v.reserve(p);
        v.push_back(InputSource::link(0, bit));
        for (uint32_t i = 1; i < p; ++i)
            v.push_back(InputSource::zero());
        return v;
    };
    uint32_t acc = 0; // node holding the running sum (0 = d itself)
    for (uint32_t bit = 1; bit < w; ++bit) {
        plan.nodes.push_back({ComponentKind::Add, p});
        std::vector<InputSource> s =
            acc == 0 ? bitOperand(0) : linkRange(acc, p);
        append(s, bitOperand(bit));
        plan.sources.push_back(std::move(s));
        acc = uint32_t(plan.nodes.size()) - 1;
    }

    // Final: popcount < K.
    plan.nodes.push_back({ComponentKind::Cmp, p});
    std::vector<InputSource> sc =
        acc == 0 ? bitOperand(0) : linkRange(acc, p);
    append(sc, garblerRange(w, p));
    plan.sources.push_back(std::move(sc));

    plan.outputs = {{uint32_t(plan.nodes.size()) - 1, 0}};
    return plan;
}

/** |a - b|: SUB both ways, CMP picks, MUX selects. Every plan input
 *  fans out to two components — the fan-out regression shape. */
ChainPlan
absDiffPlan(uint32_t w)
{
    ChainPlan plan;
    plan.name = "ChainAbsDiff:" + std::to_string(w);
    plan.garblerInputs = w;
    plan.evaluatorInputs = w;

    // Node 0: a - b.
    plan.nodes.push_back({ComponentKind::Sub, w});
    std::vector<InputSource> s0 = garblerRange(0, w);
    append(s0, evaluatorRange(0, w));
    plan.sources.push_back(std::move(s0));

    // Node 1: b - a (the same plan inputs, reversed).
    plan.nodes.push_back({ComponentKind::Sub, w});
    std::vector<InputSource> s1 = evaluatorRange(0, w);
    append(s1, garblerRange(0, w));
    plan.sources.push_back(std::move(s1));

    // Node 2: a < b (third use of each input).
    plan.nodes.push_back({ComponentKind::Cmp, w});
    std::vector<InputSource> s2 = garblerRange(0, w);
    append(s2, evaluatorRange(0, w));
    plan.sources.push_back(std::move(s2));

    // Node 3: a < b ? (b - a) : (a - b).
    plan.nodes.push_back({ComponentKind::Mux, w});
    std::vector<InputSource> s3 = {InputSource::link(2, 0)};
    append(s3, linkRange(1, w));
    append(s3, linkRange(0, w));
    plan.sources.push_back(std::move(s3));

    plan.outputs.reserve(w);
    for (uint32_t i = 0; i < w; ++i)
        plan.outputs.push_back({3, i});
    return plan;
}

/** a0*b0 < a1*b1 — MUL-heavy: ~2 W^2 ANDs pre-garbled, 2 W links. */
ChainPlan
prodCmpPlan(uint32_t w)
{
    ChainPlan plan;
    plan.name = "ChainProdCmp:" + std::to_string(w);
    plan.garblerInputs = 2 * w;
    plan.evaluatorInputs = 2 * w;

    // Node 0: p0 = a0 * b0.
    plan.nodes.push_back({ComponentKind::Mul, w});
    std::vector<InputSource> s0 = garblerRange(0, w);
    append(s0, evaluatorRange(0, w));
    plan.sources.push_back(std::move(s0));

    // Node 1: p1 = a1 * b1.
    plan.nodes.push_back({ComponentKind::Mul, w});
    std::vector<InputSource> s1 = garblerRange(w, w);
    append(s1, evaluatorRange(w, w));
    plan.sources.push_back(std::move(s1));

    // Node 2: p0 < p1.
    plan.nodes.push_back({ComponentKind::Cmp, w});
    std::vector<InputSource> s2 = linkRange(0, w);
    append(s2, linkRange(1, w));
    plan.sources.push_back(std::move(s2));

    plan.outputs = {{2, 0}};
    return plan;
}

std::vector<bool>
sampleBits(Prg &prg, uint32_t n)
{
    std::vector<bool> v(n);
    uint64_t word = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (i % 64 == 0)
            word = prg.nextU64();
        v[i] = (word >> (i % 64)) & 1;
    }
    return v;
}

} // namespace

bool
isChainSpec(const std::string &spec)
{
    return spec.rfind("Chain", 0) == 0;
}

ChainWorkload
resolveChainWorkload(const std::string &spec)
{
    // No plan is wider than its widest component, so the width cap
    // also bounds ChainHammCmp's per-bit node list before it is built.
    const std::optional<SizedSpec> s =
        splitSizedSpec(spec, kMaxComponentWidth);
    if (!s)
        throw std::invalid_argument("chain workload spec \"" + spec +
                                    "\": expected Name:WIDTH");
    if (s->size == 0)
        throw std::invalid_argument("chain workload spec \"" + spec +
                                    "\": bad width");
    const std::string_view name = s->name;
    const uint32_t w = s->size;

    ChainWorkload wl;
    if (name == "ChainMillSum") {
        wl.plan = millSumPlan(w);
        wl.description = "millionaires over sums: a0+a1 < b0+b1";
    } else if (name == "ChainHammCmp") {
        wl.plan = hammCmpPlan(w);
        wl.description =
            "Hamming distance below a private threshold";
    } else if (name == "ChainAbsDiff") {
        wl.plan = absDiffPlan(w);
        wl.description = "|a - b| via SUB/SUB/CMP/MUX";
    } else if (name == "ChainProdCmp") {
        wl.plan = prodCmpPlan(w);
        wl.description = "product comparison: a0*b0 < a1*b1";
    } else {
        throw std::invalid_argument("unknown chain workload \"" +
                                    std::string(name) + "\"");
    }
    wl.name = wl.plan.name;

    const std::string err = wl.plan.check();
    if (!err.empty())
        throw std::invalid_argument("chain workload \"" + spec +
                                    "\": " + err);

    // Deterministic sample inputs keyed by the plan's structure, so a
    // server and a test agree on the expected outputs for a spec.
    Prg prg(wl.plan.hash() ^ 0x77c4a1);
    wl.garblerBits = sampleBits(prg, wl.plan.garblerInputs);
    wl.evaluatorBits = sampleBits(prg, wl.plan.evaluatorInputs);
    wl.expectedOutputs = wl.plan.evaluate(wl.garblerBits, wl.evaluatorBits);
    return wl;
}

std::vector<std::string>
chainWorkloadSpecs(uint32_t w)
{
    const std::string ws = std::to_string(w);
    return {"ChainMillSum:" + ws, "ChainHammCmp:" + ws,
            "ChainAbsDiff:" + ws, "ChainProdCmp:" + ws};
}

} // namespace chain
} // namespace haac
