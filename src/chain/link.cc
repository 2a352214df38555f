#include "chain/link.h"

#include <chrono>
#include <stdexcept>

#include "circuit/analyze.h"
#include "crypto/hash.h"
#include "crypto/prg.h"
#include "gc/streaming.h"
#include "net/net_channel.h"
#include "net/wire.h"

namespace haac {
namespace chain {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Chain-session agreement check, the chained analogue of remote.cc's
 * Fingerprint: both parties hold the (public) plan; the structural
 * hash plus shape fields catch disagreement before any label moves,
 * and the garbler's OT/segment choices travel with it. 42 bytes.
 */
struct ChainFingerprint
{
    uint64_t planHash = 0;
    uint32_t nodes = 0;
    uint32_t links = 0;
    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    uint32_t outputs = 0;
    uint32_t segmentTables = 0;
    uint64_t reserved = 0; ///< written as 0
    uint8_t otMode = 1;    ///< 1 = IKNP, the only OT (otCachedFlag)
    uint8_t otCached = 0;

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
        w.u32(segmentTables);
        w.u64(reserved);
        w.u8(otMode);
        w.u8(otCached);
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
        fp.segmentTables = r.u32();
        fp.reserved = r.u64();
        fp.otMode = r.u8();
        fp.otCached = r.u8();
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

uint32_t
ChainPlan::numEvaluatorPorts() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += s.kind == SourceKind::Evaluator ? 1 : 0;
    return n;
}

uint32_t
ChainPlan::numDirectPorts() const
{
    uint32_t n = 0;
    for (const auto &node : sources)
        for (const InputSource &s : node)
            n += (s.kind == SourceKind::Garbler ||
                  s.kind == SourceKind::Zero ||
                  s.kind == SourceKind::One)
                     ? 1
                     : 0;
    return n;
}

uint64_t
ChainPlan::totalAndGates() const
{
    uint64_t n = 0;
    for (const ComponentSpec &spec : nodes)
        n += buildComponent(spec).numAndGates();
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

Label
translateLinkLabel(const LinkTable &table, const Label &producer_active,
                   uint64_t link_index)
{
    const RekeyedHasher h(linkTweakOf(link_index));
    return table.row[producer_active.lsb() ? 1 : 0] ^ h(producer_active);
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

    const auto start = Clock::now();
    const uint32_t segment_tables = clampSegment(opts.segmentTables);

    ChainResult res;
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();
    res.segmentTables = segment_tables;

    // Acquire one garbled component per node (pool or inline) and
    // validate each against its spec's netlist shape.
    std::vector<std::unique_ptr<GarbledComponent>> owned;
    std::vector<const GarbledComponent *> comps;
    owned.reserve(plan.nodes.size());
    comps.reserve(plan.nodes.size());
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
        if (acq.pooled)
            ++res.pooledComponents;
        owned.push_back(std::move(acq.component));
        comps.push_back(owned.back().get());
    }

    // Every component's input labels, expanded once for the session.
    const std::vector<InputLabels> labels = expandComponentInputs(comps);

    NetChannel chan(transport, size_t(segment_tables) * kTableBytes);

    const uint32_t m = plan.numEvaluatorPorts();
    res.otSetupReused = canReuseOtSetup(opts.otCache, m);

    ChainFingerprint fp = ChainFingerprint::of(plan);
    fp.segmentTables = segment_tables;
    fp.otCached = res.otSetupReused ? 1 : 0;
    const std::vector<uint8_t> fp_bytes = fp.serialize();
    chan.sendBytes(fp_bytes.data(), fp_bytes.size());
    chan.flush();
    res.controlBytes += fp_bytes.size();

    // --- OT phase: one IKNP batch over every evaluator-driven port,
    // in plan scan order. m0/m1 are the consuming component's own
    // input labels (each port has independent labels even when two
    // ports share a plan input bit). ---
    {
        std::vector<Label> m0, m1;
        m0.reserve(m);
        m1.reserve(m);
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            for (size_t i = 0; i < plan.sources[n].size(); ++i) {
                if (plan.sources[n][i].kind != SourceKind::Evaluator)
                    continue;
                m0.push_back(labels[n].activeLabel(WireId(i), false));
                m1.push_back(labels[n].activeLabel(WireId(i), true));
            }
        sendOtLabels(chan, m0, m1, opts.otCache, res);
        chan.flush();
    }

    // --- Direct labels: garbler-driven and constant ports in scan
    // order, then each component's constant-one label. ---
    {
        const size_t base = chan.bytesSent();
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            for (size_t i = 0; i < plan.sources[n].size(); ++i) {
                const InputSource &s = plan.sources[n][i];
                const WireId w = WireId(i);
                switch (s.kind) {
                case SourceKind::Garbler:
                    chan.sendLabel(labels[n].activeLabel(
                        w, garbler_bits[s.index]));
                    break;
                case SourceKind::Zero:
                    chan.sendLabel(
                        labels[n].activeLabel(w, false));
                    break;
                case SourceKind::One:
                    chan.sendLabel(labels[n].activeLabel(w, true));
                    break;
                case SourceKind::Evaluator:
                case SourceKind::Link:
                    break;
                }
            }
        for (size_t n = 0; n < plan.nodes.size(); ++n) {
            // Every built netlist carries a constant-one input wire
            // (the last input); ship its active label like remote.cc.
            const Netlist nl = buildComponent(plan.nodes[n]);
            if (nl.constOne != kNoWire)
                chan.sendLabel(
                    labels[n].activeLabel(nl.constOne, true));
        }
        res.inputLabelBytes = chan.bytesSent() - base;
        chan.flush();
    }

    // --- Per node: link-table frame, then the component's AND tables
    // through the segment framing. Flushing before each typed frame
    // keeps the two streams on disjoint transport frames. ---
    const std::vector<LinkTable> links = linkTablesFor(plan, comps, labels);
    size_t next_link = 0;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        uint32_t node_links = 0;
        for (const InputSource &s : plan.sources[n])
            node_links += s.kind == SourceKind::Link ? 1 : 0;
        if (node_links > 0) {
            std::vector<uint8_t> rows(size_t(node_links) *
                                      kLinkTableBytes);
            for (uint32_t k = 0; k < node_links; ++k) {
                links[next_link + k].row[0].toBytes(
                    rows.data() + size_t(k) * kLinkTableBytes);
                links[next_link + k].row[1].toBytes(
                    rows.data() + size_t(k) * kLinkTableBytes +
                    kLabelBytes);
            }
            next_link += node_links;
            const std::vector<uint8_t> frame = makeLinkTableFrame(
                uint32_t(n), node_links, rows.data(), rows.size());
            transport.sendFrame(frame);
            res.linkBytes += frame.size();
            ++res.linkFrames;
        }
        const uint64_t frames_before = transport.framesSent();
        const size_t base = chan.bytesSent();
        for (const GarbledTable &t : comps[n]->inst.tables)
            chan.sendTable(t);
        chan.flush();
        res.tableBytes += chan.bytesSent() - base;
        res.tableSegments += transport.framesSent() - frames_before;
    }

    // --- Decode bits and the result echo. ---
    std::vector<bool> decode;
    decode.reserve(plan.outputs.size());
    for (const PortRef &ref : plan.outputs)
        decode.push_back(comps[ref.node]->inst.decodeBit(ref.bit));
    sendDecodeReceiveEcho(chan, decode, res);

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.linkBytes + res.outputDecodeBytes;
    res.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
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

    const auto start = Clock::now();
    ChainResult res;
    res.components = uint32_t(plan.nodes.size());
    res.links = plan.numLinks();

    std::vector<Netlist> nls;
    nls.reserve(plan.nodes.size());
    for (const ComponentSpec &spec : plan.nodes) {
        nls.push_back(buildComponent(spec));
        res.gates += nls.back().numGates();
    }

    NetChannel chan(transport,
                    size_t(clampSegment(opts.segmentTables)) *
                        kTableBytes);

    std::vector<uint8_t> fp_bytes(ChainFingerprint::kBytes);
    chan.recvBytes(fp_bytes.data(), fp_bytes.size());
    res.controlBytes += fp_bytes.size();
    const ChainFingerprint remote_fp =
        ChainFingerprint::deserialize(fp_bytes);
    const bool ot_cached =
        otCachedFlag(remote_fp.otMode, remote_fp.otCached);
    const ChainFingerprint local_fp = ChainFingerprint::of(plan);
    if (!remote_fp.samePlan(local_fp))
        throw NetError(
            "chain plan mismatch: local hash " +
            std::to_string(local_fp.planHash) + " (" +
            std::to_string(local_fp.nodes) + " nodes) vs garbler " +
            std::to_string(remote_fp.planHash) + " (" +
            std::to_string(remote_fp.nodes) + " nodes)");
    res.segmentTables = remote_fp.segmentTables;

    // Per-node input labels, filled phase by phase.
    std::vector<std::vector<Label>> inputs(plan.nodes.size());
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        inputs[n].resize(nls[n].numInputs());

    // --- OT phase: choices are the plan input bits each
    // evaluator-driven port names, in the garbler's scan order. ---
    {
        std::vector<bool> choices;
        choices.reserve(plan.numEvaluatorPorts());
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            for (const InputSource &s : plan.sources[n])
                if (s.kind == SourceKind::Evaluator)
                    choices.push_back(evaluator_bits[s.index]);
        const std::vector<Label> labels = receiveOtLabels(
            chan, choices, ot_cached, opts.otCache, res);
        size_t at = 0;
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            for (size_t i = 0; i < plan.sources[n].size(); ++i)
                if (plan.sources[n][i].kind == SourceKind::Evaluator)
                    inputs[n][i] = labels[at++];
    }

    // --- Direct labels, mirroring the garbler's scan order. ---
    {
        const size_t base = chan.bytesReceived();
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            for (size_t i = 0; i < plan.sources[n].size(); ++i) {
                const SourceKind kind = plan.sources[n][i].kind;
                if (kind == SourceKind::Garbler ||
                    kind == SourceKind::Zero || kind == SourceKind::One)
                    inputs[n][i] = chan.recvLabel();
            }
        for (size_t n = 0; n < plan.nodes.size(); ++n)
            if (nls[n].constOne != kNoWire)
                inputs[n][nls[n].constOne] = chan.recvLabel();
        res.inputLabelBytes = chan.bytesReceived() - base;
    }

    // --- Per node: link frame, translate, evaluate. ---
    std::vector<std::vector<Label>> nodeOut(plan.nodes.size());
    uint64_t link = 0;
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
        uint32_t node_links = 0;
        for (const InputSource &s : plan.sources[n])
            node_links += s.kind == SourceKind::Link ? 1 : 0;
        if (node_links > 0) {
            const std::vector<uint8_t> frame = transport.recvFrame();
            const LinkTableFrame header = parseLinkTableFrame(frame);
            if (header.node != n || header.count != node_links)
                throw NetError(
                    "link-table frame for node " +
                    std::to_string(header.node) + " (" +
                    std::to_string(header.count) +
                    " tables) arrived while evaluating node " +
                    std::to_string(n));
            res.linkBytes += frame.size();
            ++res.linkFrames;
            size_t at = header.payloadOffset;
            for (size_t i = 0; i < plan.sources[n].size(); ++i) {
                const InputSource &s = plan.sources[n][i];
                if (s.kind != SourceKind::Link)
                    continue;
                LinkTable t;
                t.row[0] = Label::fromBytes(frame.data() + at);
                t.row[1] =
                    Label::fromBytes(frame.data() + at + kLabelBytes);
                at += kLinkTableBytes;
                inputs[n][i] = translateLinkLabel(
                    t, nodeOut[s.from.node][s.from.bit], link);
                ++link;
            }
        }
        const uint64_t frames_before = transport.framesReceived();
        const size_t base = chan.bytesReceived();
        nodeOut[n] = evaluateStreaming(nls[n], inputs[n],
                                       [&] { return chan.recvTable(); });
        res.tableBytes += chan.bytesReceived() - base;
        res.tableSegments += transport.framesReceived() - frames_before;
    }

    // --- Decode and echo. ---
    std::vector<Label> out_labels;
    out_labels.reserve(plan.outputs.size());
    for (const PortRef &ref : plan.outputs)
        out_labels.push_back(nodeOut[ref.node][ref.bit]);
    receiveDecodeSendEcho(chan, out_labels, res);

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.linkBytes + res.outputDecodeBytes;
    res.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return res;
}

} // namespace chain
} // namespace haac
