#include "chain/link.h"

#include <stdexcept>

#include "circuit/analyze.h"
#include "crypto/hash.h"
#include "crypto/prg.h"
#include "gc/streaming.h"
#include "net/wire.h"

namespace haac {
namespace chain {

namespace {

/**
 * Chain-session agreement check, the chained analogue of remote.cc's
 * Fingerprint: both parties hold the (public) plan; the structural
 * hash plus shape fields catch disagreement before any label moves,
 * and the garbler's OT/segment choices travel with it in the tail
 * (segmentTables, then reserved, otMode, otCached). 42 bytes.
 */
struct ChainFingerprint
{
    uint64_t planHash = 0;
    uint32_t nodes = 0;
    uint32_t links = 0;
    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    uint32_t outputs = 0;
    FingerprintTail tail;

    static constexpr size_t kBytes = 8 + 6 * 4 + 8 + 2;

    static ChainFingerprint
    of(const ChainPlan &plan)
    {
        ChainFingerprint fp;
        fp.planHash = plan.hash();
        fp.nodes = uint32_t(plan.nodes.size());
        fp.links = plan.numLinks();
        fp.garblerInputs = plan.garblerInputs;
        fp.evaluatorInputs = plan.evaluatorInputs;
        fp.outputs = uint32_t(plan.outputs.size());
        return fp;
    }

    std::vector<uint8_t>
    serialize() const
    {
        WireWriter w;
        w.u64(planHash);
        w.u32(nodes);
        w.u32(links);
        w.u32(garblerInputs);
        w.u32(evaluatorInputs);
        w.u32(outputs);
        w.u32(tail.segmentTables);
        w.u64(tail.reserved);
        w.u8(tail.otMode);
        w.u8(tail.otCached);
        return w.take();
    }

    static ChainFingerprint
    deserialize(const std::vector<uint8_t> &bytes)
    {
        WireReader r(bytes);
        ChainFingerprint fp;
        fp.planHash = r.u64();
        fp.nodes = r.u32();
        fp.links = r.u32();
        fp.garblerInputs = r.u32();
        fp.evaluatorInputs = r.u32();
        fp.outputs = r.u32();
        fp.tail.segmentTables = r.u32();
        fp.tail.reserved = r.u64();
        fp.tail.otMode = r.u8();
        fp.tail.otCached = r.u8();
        r.expectEnd("chain fingerprint");
        return fp;
    }

    bool
    samePlan(const ChainFingerprint &o) const
    {
        return planHash == o.planHash && nodes == o.nodes &&
               links == o.links && garblerInputs == o.garblerInputs &&
               evaluatorInputs == o.evaluatorInputs &&
               outputs == o.outputs;
    }
};

void
fnv1a(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
requireValidPlan(const ChainPlan &plan, const char *who)
{
    const std::string err = plan.check();
    if (!err.empty())
        throw std::invalid_argument(std::string(who) + ": " + err);
}

} // namespace

uint32_t
ChainPlan::numLinks() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += s.kind == SourceKind::Link ? 1 : 0;
    return n;
}

uint64_t
ChainPlan::totalGates() const
{
    uint64_t n = 0;
    for (const ComponentSpec &spec : nodes)
        n += buildComponent(spec).numGates();
    return n;
}

std::string
ChainPlan::check() const
{
    // The structural half of the circuit analyzer, first violation
    // only. deep must stay false: the deep pass flattens through
    // monolithic(), which re-validates through this very function.
    CircuitLintOptions opts;
    opts.warnings = false;
    opts.deep = false;
    return analyzeChainPlan(*this, opts).firstError();
}

std::vector<uint64_t>
planLinkTweaks(const ChainPlan &plan)
{
    std::vector<uint64_t> tweaks;
    tweaks.reserve(plan.numLinks());
    for (const auto &node : plan.sources)
        for (const InputSource &s : node)
            if (s.kind == SourceKind::Link)
                tweaks.push_back(linkTweakOf(tweaks.size()));
    return tweaks;
}

uint64_t
ChainPlan::hash() const
{
    uint64_t h = 0xcbf29ce484222325ull;
    fnv1a(h, garblerInputs);
    fnv1a(h, evaluatorInputs);
    fnv1a(h, nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        fnv1a(h, uint64_t(nodes[n].kind));
        fnv1a(h, nodes[n].width);
        for (const InputSource &s : sources[n]) {
            fnv1a(h, uint64_t(s.kind));
            fnv1a(h, s.kind == SourceKind::Link
                         ? (uint64_t(s.from.node) << 32) | s.from.bit
                         : uint64_t(s.index));
        }
    }
    fnv1a(h, outputs.size());
    for (const PortRef &ref : outputs)
        fnv1a(h, (uint64_t(ref.node) << 32) | ref.bit);
    return h;
}

Netlist
ChainPlan::monolithic() const
{
    requireValidPlan(*this, "ChainPlan::monolithic");
    CircuitBuilder cb;
    const Bits g = cb.garblerInputs(garblerInputs);
    const Bits e = cb.evaluatorInputs(evaluatorInputs);
    std::vector<Bits> nodeOut;
    nodeOut.reserve(nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        std::vector<Wire> in(sources[n].size());
        for (size_t i = 0; i < in.size(); ++i) {
            const InputSource &s = sources[n][i];
            switch (s.kind) {
            case SourceKind::Garbler:
                in[i] = g[s.index];
                break;
            case SourceKind::Evaluator:
                in[i] = e[s.index];
                break;
            case SourceKind::Link:
                in[i] = nodeOut[s.from.node][s.from.bit];
                break;
            case SourceKind::Zero:
                in[i] = cb.constant(false);
                break;
            case SourceKind::One:
                in[i] = cb.constant(true);
                break;
            }
        }
        nodeOut.push_back(emitComponent(cb, nodes[n], in));
    }
    for (const PortRef &ref : outputs)
        cb.addOutput(nodeOut[ref.node][ref.bit]);
    return cb.build();
}

std::vector<bool>
ChainPlan::evaluate(const std::vector<bool> &garbler_bits,
                    const std::vector<bool> &evaluator_bits) const
{
    requireValidPlan(*this, "ChainPlan::evaluate");
    if (garbler_bits.size() != garblerInputs ||
        evaluator_bits.size() != evaluatorInputs)
        throw std::invalid_argument(
            "ChainPlan::evaluate: wrong input count");
    std::vector<std::vector<bool>> nodeOut;
    nodeOut.reserve(nodes.size());
    for (size_t n = 0; n < nodes.size(); ++n) {
        std::vector<bool> in(sources[n].size());
        for (size_t i = 0; i < in.size(); ++i) {
            const InputSource &s = sources[n][i];
            switch (s.kind) {
            case SourceKind::Garbler:
                in[i] = garbler_bits[s.index];
                break;
            case SourceKind::Evaluator:
                in[i] = evaluator_bits[s.index];
                break;
            case SourceKind::Link:
                in[i] = nodeOut[s.from.node][s.from.bit];
                break;
            case SourceKind::Zero:
                in[i] = false;
                break;
            case SourceKind::One:
                in[i] = true;
                break;
            }
        }
        nodeOut.push_back(buildComponent(nodes[n]).evaluate(in, {}));
    }
    std::vector<bool> out(outputs.size());
    for (size_t i = 0; i < outputs.size(); ++i)
        out[i] = nodeOut[outputs[i].node][outputs[i].bit];
    return out;
}

LinkTable
buildLinkTable(const Label &producer_zero, const Label &producer_offset,
               const Label &consumer_zero, const Label &consumer_offset,
               uint64_t link_index)
{
    const RekeyedHasher h(linkTweakOf(link_index));
    const Label y1 = producer_zero ^ producer_offset;
    const Label x1 = consumer_zero ^ consumer_offset;
    LinkTable t;
    t.row[producer_zero.lsb() ? 1 : 0] = consumer_zero ^ h(producer_zero);
    t.row[y1.lsb() ? 1 : 0] = x1 ^ h(y1);
    return t;
}

namespace {

/** Each component's offset and input labels, expanded from its seed. */
std::vector<InputLabels>
expandComponentInputs(const std::vector<const GarbledComponent *> &components)
{
    std::vector<InputLabels> labels;
    labels.reserve(components.size());
    for (const GarbledComponent *c : components)
        labels.push_back(c->inst.inputLabels());
    return labels;
}

/** buildLinkTables() over the components' expanded input labels. */
std::vector<LinkTable>
linkTablesFor(const ChainPlan &plan,
              const std::vector<const GarbledComponent *> &components,
              const std::vector<InputLabels> &labels)
{
    std::vector<LinkTable> tables;
    tables.reserve(plan.numLinks());
    uint64_t link = 0;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        for (size_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &s = plan.sources[n][i];
            if (s.kind != SourceKind::Link)
                continue;
            tables.push_back(buildLinkTable(
                components[s.from.node]->inst.outputZero[s.from.bit],
                labels[s.from.node].offset, labels[n].zero[i],
                labels[n].offset, link));
            ++link;
        }
    }
    return tables;
}

} // namespace

std::vector<LinkTable>
buildLinkTables(const ChainPlan &plan,
                const std::vector<const GarbledComponent *> &components)
{
    if (components.size() != plan.nodes.size())
        throw std::invalid_argument(
            "buildLinkTables: one component per plan node required");
    return linkTablesFor(plan, components,
                         expandComponentInputs(components));
}

ComponentProvider
freshComponentProvider(uint64_t seed_base)
{
    return [seed_base](uint32_t node, const ComponentSpec &spec) {
        const uint64_t seed =
            seed_base != 0 ? seed_base + node : randomSeed();
        AcquiredComponent acq;
        acq.component = std::make_unique<GarbledComponent>(
            captureComponent(spec, seed));
        return acq;
    };
}

ChainResult
runChainGarbler(const ChainPlan &plan,
                const std::vector<bool> &garbler_bits,
                Transport &transport, const ComponentProvider &provider,
                const RemoteOptions &opts)
{
    requireValidPlan(plan, "runChainGarbler");
    if (garbler_bits.size() != plan.garblerInputs)
        throw std::invalid_argument(
            "runChainGarbler: wrong garbler input count");

    GarblerSession s; // the session clock starts here
    ChainResult res;
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();

    // Acquire one garbled component per node (pool or inline) and
    // validate each against its spec's netlist, built once here.
    std::vector<std::unique_ptr<GarbledComponent>> owned;
    std::vector<const GarbledComponent *> comps;
    std::vector<WireId> const_one;
    owned.reserve(plan.nodes.size());
    comps.reserve(plan.nodes.size());
    const_one.reserve(plan.nodes.size());
    for (uint32_t n = 0; n < plan.nodes.size(); ++n) {
        AcquiredComponent acq = provider(n, plan.nodes[n]);
        if (acq.component == nullptr ||
            !(acq.component->spec == plan.nodes[n]))
            throw std::invalid_argument(
                "runChainGarbler: provider returned the wrong "
                "component for node " +
                std::to_string(n));
        const Netlist nl = buildComponent(plan.nodes[n]);
        if (acq.component->inst.numInputs != nl.numInputs() ||
            acq.component->inst.outputZero.size() !=
                nl.outputs.size() ||
            acq.component->inst.tables.size() != nl.numAndGates())
            throw std::invalid_argument(
                "runChainGarbler: component for node " +
                std::to_string(n) + " does not match " +
                plan.nodes[n].name());
        res.gates += nl.numGates();
        const_one.push_back(nl.constOne);
        if (acq.pooled)
            ++res.pooledComponents;
        owned.push_back(std::move(acq.component));
        comps.push_back(owned.back().get());
    }

    // Every component's input labels, expanded once for the session.
    const std::vector<InputLabels> labels = expandComponentInputs(comps);
    const std::vector<LinkTable> links = linkTablesFor(plan, comps, labels);

    s.writeFingerprint = [&plan](const FingerprintTail &tail) {
        ChainFingerprint fp = ChainFingerprint::of(plan);
        fp.tail = tail;
        return fp.serialize();
    };
    // OT pairs and direct labels in plan scan order. The labels are
    // the consuming component's own (each port has independent labels
    // even when two ports share a plan input bit).
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        for (size_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &src = plan.sources[n][i];
            const WireId w = WireId(i);
            switch (src.kind) {
            case SourceKind::Evaluator:
                s.otZero.push_back(labels[n].activeLabel(w, false));
                s.otOne.push_back(labels[n].activeLabel(w, true));
                break;
            case SourceKind::Garbler:
                s.directLabels.push_back(
                    labels[n].activeLabel(w, garbler_bits[src.index]));
                break;
            case SourceKind::Zero:
            case SourceKind::One:
                s.directLabels.push_back(labels[n].activeLabel(
                    w, src.kind == SourceKind::One));
                break;
            case SourceKind::Link:
                break;
            }
        }
    // Then each component's constant-one label.
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        if (const_one[n] != kNoWire)
            s.directLabels.push_back(
                labels[n].activeLabel(const_one[n], true));

    // Per node: its link tables in one frame, then its tables.
    std::vector<uint8_t> rows(links.size() * kLinkTableBytes);
    for (size_t k = 0; k < links.size(); ++k) {
        links[k].row[0].toBytes(rows.data() + k * kLinkTableBytes);
        links[k].row[1].toBytes(rows.data() + k * kLinkTableBytes +
                                kLabelBytes);
    }
    s.nodes.resize(plan.nodes.size());
    size_t next_link = 0;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        s.nodes[n].captured = &comps[n]->inst;
        uint32_t node_links = 0;
        for (const InputSource &src : plan.sources[n])
            node_links += src.kind == SourceKind::Link ? 1 : 0;
        if (node_links > 0)
            s.nodes[n].linkFrame = makeLinkTableFrame(
                uint32_t(n), node_links,
                rows.data() + next_link * kLinkTableBytes,
                size_t(node_links) * kLinkTableBytes);
        next_link += node_links;
    }
    s.outputs = plan.outputs;

    runGarblerSession(s, transport, opts, res);
    return res;
}

ChainResult
runChainGarbler(const ChainPlan &plan,
                const std::vector<bool> &garbler_bits,
                Transport &transport, uint64_t seed_base,
                const RemoteOptions &opts)
{
    return runChainGarbler(plan, garbler_bits, transport,
                           freshComponentProvider(seed_base), opts);
}

ChainResult
runChainEvaluator(const ChainPlan &plan,
                  const std::vector<bool> &evaluator_bits,
                  Transport &transport, const RemoteOptions &opts)
{
    requireValidPlan(plan, "runChainEvaluator");
    if (evaluator_bits.size() != plan.evaluatorInputs)
        throw std::invalid_argument(
            "runChainEvaluator: wrong evaluator input count");

    EvaluatorSession s; // the session clock starts here
    ChainResult res;
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();

    std::vector<Netlist> nls;
    nls.reserve(plan.nodes.size());
    for (const ComponentSpec &spec : plan.nodes) {
        nls.push_back(buildComponent(spec));
        res.gates += nls.back().numGates();
    }

    const ChainFingerprint local = ChainFingerprint::of(plan);
    s.fingerprintBytes = ChainFingerprint::kBytes;
    s.readFingerprint = [&local](const std::vector<uint8_t> &bytes) {
        const ChainFingerprint fp = ChainFingerprint::deserialize(bytes);
        if (!fp.samePlan(local))
            throw NetError("chain plan mismatch: local hash " +
                           std::to_string(local.planHash) + " (" +
                           std::to_string(local.nodes) +
                           " nodes) vs garbler " +
                           std::to_string(fp.planHash) + " (" +
                           std::to_string(fp.nodes) + " nodes)");
        return fp.tail;
    };
    // Choices, label slots and links in the garbler's scan order.
    s.nodes.resize(plan.nodes.size());
    uint64_t link = 0;
    for (uint32_t n = 0; n < plan.nodes.size(); ++n) {
        s.nodes[n].netlist = &nls[n];
        for (uint32_t i = 0; i < plan.sources[n].size(); ++i) {
            const InputSource &src = plan.sources[n][i];
            switch (src.kind) {
            case SourceKind::Evaluator:
                s.otChoices.push_back(evaluator_bits[src.index]);
                s.otSlots.push_back({n, i});
                break;
            case SourceKind::Garbler:
            case SourceKind::Zero:
            case SourceKind::One:
                s.directSlots.push_back({n, i});
                break;
            case SourceKind::Link:
                s.nodes[n].links.push_back({i, src.from, linkTweakOf(link++)});
                break;
            }
        }
    }
    for (uint32_t n = 0; n < plan.nodes.size(); ++n)
        if (nls[n].constOne != kNoWire)
            s.directSlots.push_back({n, nls[n].constOne});
    s.outputs = plan.outputs;

    runEvaluatorSession(s, transport, opts, res);
    return res;
}

} // namespace chain
} // namespace haac
