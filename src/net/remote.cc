#include "net/remote.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "crypto/hash.h"
#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/net_channel.h"
#include "net/table_stream.h"
#include "net/wire.h"

namespace haac {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Circuit agreement check + OT and segment parameters, 38 bytes.
 *
 * Wire layout (little-endian), which tests/test_net.cc parses when it
 * plays a hand-rolled peer: six u32 shape fields (offsets 0..23), a
 * reserved u64 written as 0 (offset 24), segmentTables (offset 32,
 * u32), otMode (offset 36, u8: always 1 = IKNP), otCached (offset 37,
 * u8: 1 = this session reuses the connection's cached base-OT + IKNP
 * setup and skips the base phase). The evaluator refuses any other
 * otMode or otCached value and a non-zero reserved field
 * (runEvaluatorSession).
 */
struct Fingerprint
{
    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    uint32_t gates = 0;
    uint32_t andGates = 0;
    uint32_t outputs = 0;
    uint32_t constOne = 0;
    FingerprintTail tail;

    static constexpr size_t kBytes = 6 * 4 + 8 + 4 + 1 + 1;

    static Fingerprint
    of(const Netlist &nl)
    {
        Fingerprint fp;
        fp.garblerInputs = nl.numGarblerInputs;
        fp.evaluatorInputs = nl.numEvaluatorInputs;
        fp.gates = nl.numGates();
        fp.andGates = nl.numAndGates();
        fp.outputs = uint32_t(nl.outputs.size());
        fp.constOne = nl.constOne;
        return fp;
    }

    std::vector<uint8_t>
    serialize() const
    {
        WireWriter w;
        w.u32(garblerInputs);
        w.u32(evaluatorInputs);
        w.u32(gates);
        w.u32(andGates);
        w.u32(outputs);
        w.u32(constOne);
        w.u64(tail.reserved);
        w.u32(tail.segmentTables);
        w.u8(tail.otMode);
        w.u8(tail.otCached);
        return w.take();
    }

    static Fingerprint
    deserialize(const std::vector<uint8_t> &bytes)
    {
        WireReader r(bytes);
        Fingerprint fp;
        fp.garblerInputs = r.u32();
        fp.evaluatorInputs = r.u32();
        fp.gates = r.u32();
        fp.andGates = r.u32();
        fp.outputs = r.u32();
        fp.constOne = r.u32();
        fp.tail.reserved = r.u64();
        fp.tail.segmentTables = r.u32();
        fp.tail.otMode = r.u8();
        fp.tail.otCached = r.u8();
        r.expectEnd("fingerprint");
        return fp;
    }

    /** Shape equality (OT parameters / segmenting are garbler's). */
    bool
    sameCircuit(const Fingerprint &o) const
    {
        return garblerInputs == o.garblerInputs &&
               evaluatorInputs == o.evaluatorInputs &&
               gates == o.gates && andGates == o.andGates &&
               outputs == o.outputs && constOne == o.constOne;
    }

    std::string
    shapeString() const
    {
        return "g=" + std::to_string(garblerInputs) +
               " e=" + std::to_string(evaluatorInputs) +
               " gates=" + std::to_string(gates) +
               " ands=" + std::to_string(andGates) +
               " outs=" + std::to_string(outputs) +
               " const=" + std::to_string(constOne);
    }
};

/** Segment size actually used: 0 means 1 table per segment. */
uint32_t
clampSegment(uint32_t segment_tables)
{
    return segment_tables > 0 ? segment_tables : 1;
}

/**
 * The one-node session shape: OT for the evaluator's inputs, the
 * public constant-one label in the OT frame, the garbler's labels,
 * and @p node's tables. Both labels and tables come from @p labels and
 * @p node, so live and replayed sessions send identical traffic.
 */
RemoteResult
garbleMonolithic(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, const InputLabels &labels,
                 GarblerNode node, const RemoteOptions &opts)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument(
            "runRemoteGarbler: wrong garbler input count");

    const uint32_t g = netlist.numGarblerInputs;
    const uint32_t m = netlist.numEvaluatorInputs;
    GarblerSession s;
    s.writeFingerprint = [&netlist](const FingerprintTail &tail) {
        Fingerprint fp = Fingerprint::of(netlist);
        fp.tail = tail;
        return fp.serialize();
    };
    s.otZero.resize(m);
    s.otOne.resize(m);
    for (uint32_t i = 0; i < m; ++i) {
        s.otZero[i] = labels.activeLabel(g + i, false);
        s.otOne[i] = labels.activeLabel(g + i, true);
    }
    if (netlist.constOne != kNoWire)
        s.otFrameLabels.push_back(labels.activeLabel(netlist.constOne, true));
    s.directLabels.resize(g);
    for (uint32_t i = 0; i < g; ++i)
        s.directLabels[i] = labels.activeLabel(i, garbler_bits[i]);
    s.nodes.push_back(std::move(node));
    s.outputs.resize(netlist.outputs.size());
    for (uint32_t i = 0; i < s.outputs.size(); ++i)
        s.outputs[i].bit = i;

    RemoteResult res;
    res.gates = netlist.numGates();
    res.pooledGarbling = s.nodes[0].captured != nullptr;
    runGarblerSession(s, transport, opts, res);
    return res;
}

} // namespace

void
runGarblerSession(const GarblerSession &s, Transport &transport,
                  const RemoteOptions &opts, RemoteResult &res)
{
    res.segmentTables = clampSegment(opts.segmentTables);
    NetChannel chan(transport, size_t(res.segmentTables) * kTableBytes);
    OtConnectionCache *cache = opts.otCache;

    // Fingerprint: agree on the circuit before any label moves. It
    // carries the base-OT cache decision, so both sides agree on
    // whether the base phase runs.
    res.otSetupReused = cache != nullptr && cache->sender != nullptr &&
                        cache->sender->ready() && !s.otZero.empty();
    FingerprintTail tail;
    tail.segmentTables = res.segmentTables;
    tail.otCached = res.otSetupReused ? 1 : 0;
    const std::vector<uint8_t> fp = s.writeFingerprint(tail);
    chan.sendBytes(fp.data(), fp.size());
    chan.flush();
    res.controlBytes += fp.size();

    // OT phase (before any other label traffic): one IKNP batch over
    // every choice, then the public labels that share its frame.
    size_t base = chan.bytesSent();
    const size_t uplink_base = chan.bytesReceived();
    if (!s.otZero.empty()) {
        std::unique_ptr<OtExtSender> fresh;
        OtExtSender *ot = nullptr;
        if (res.otSetupReused) {
            cache->sender->rebind(chan, chan);
            ot = cache->sender.get();
        } else {
            fresh = std::make_unique<OtExtSender>(chan, chan,
                                                  otRandomKey());
            fresh->setup(); // blocks on the evaluator's base-OT key
            ot = fresh.get();
        }
        ot->send(s.otZero, s.otOne);
        if (cache != nullptr && fresh != nullptr)
            cache->sender = std::move(fresh);
    }
    for (const Label &l : s.otFrameLabels)
        chan.sendLabel(l);
    res.otBytes = chan.bytesSent() - base;
    res.otUplinkBytes = chan.bytesReceived() - uplink_base;
    chan.flush();

    // Direct labels, flushed so the table stream starts on a frame
    // boundary (both sides' segment counters must window the same
    // frames).
    base = chan.bytesSent();
    for (const Label &l : s.directLabels)
        chan.sendLabel(l);
    res.inputLabelBytes = chan.bytesSent() - base;
    chan.flush();

    // Per node: its link-table frame, then its tables, one frame per
    // segment, sent straight from the walk's segment buffers (a live
    // garbling) or from the capture's table array. The channel holds
    // nothing unsent here, so the two streams use disjoint frames.
    for (const GarblerNode &node : s.nodes) {
        if (!node.linkFrame.empty()) {
            transport.sendFrame(node.linkFrame);
            res.linkBytes += node.linkFrame.size();
            ++res.linkFrames;
        }
        const uint64_t frames_before = transport.framesSent();
        if (node.live != nullptr) {
            const uint64_t tables = node.live->netlist().numAndGates();
            TableFrameWriter out(transport, res.segmentTables,
                                 tables > res.segmentTables);
            node.live->run(out);
            out.finish();
            res.tableBytes += node.live->tablesEmitted() * kTableBytes;
        } else {
            sendTableFrames(transport, node.captured->tables,
                            res.segmentTables);
            res.tableBytes += node.captured->tables.size() * kTableBytes;
        }
        res.tableSegments += transport.framesSent() - frames_before;
    }

    // Decode bits, then the evaluator's result echo: it decodes first
    // and shares the output.
    base = chan.bytesSent();
    for (const PortRef &p : s.outputs) {
        const GarblerNode &node = s.nodes[p.node];
        chan.sendBit(node.live != nullptr ? node.live->decodeBit(p.bit)
                                          : node.captured->decodeBit(p.bit));
    }
    res.outputDecodeBytes = chan.bytesSent() - base;
    chan.flush();
    res.outputs.resize(s.outputs.size());
    for (size_t i = 0; i < res.outputs.size(); ++i)
        res.outputs[i] = chan.recvBit();
    res.controlBytes += res.outputs.size();

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.linkBytes + res.outputDecodeBytes;
    res.seconds =
        std::chrono::duration<double>(Clock::now() - s.start).count();
}

void
runEvaluatorSession(const EvaluatorSession &s, Transport &transport,
                    const RemoteOptions &opts, RemoteResult &res)
{
    NetChannel chan(transport,
                    size_t(clampSegment(opts.segmentTables)) *
                        kTableBytes);
    OtConnectionCache *cache = opts.otCache;

    // Fingerprint: the flavor checks the circuit shape, the runner
    // the fields every flavor carries, all before a byte goes back.
    std::vector<uint8_t> fp_bytes(s.fingerprintBytes);
    chan.recvBytes(fp_bytes.data(), fp_bytes.size());
    res.controlBytes += fp_bytes.size();
    const FingerprintTail fp = s.readFingerprint(fp_bytes);
    if (fp.otMode != 1)
        throw NetError("garbler fingerprint names OT mode " +
                       std::to_string(fp.otMode) +
                       "; this build speaks only IKNP (1)");
    if (fp.otCached > 1)
        throw NetError("garbler fingerprint has otCached byte " +
                       std::to_string(fp.otCached) + "; expected 0 or 1");
    if (fp.reserved != 0)
        throw NetError("garbler fingerprint has reserved field " +
                       std::to_string(fp.reserved) +
                       "; this build walks netlist order only (0)");
    res.segmentTables = fp.segmentTables;
    // The otCached byte decides for both sides whether the base phase
    // runs: a garbler reusing its cached extension sender would
    // deadlock against a fresh receiver (and vice versa).
    res.otSetupReused = fp.otCached == 1;

    std::vector<std::vector<Label>> inputs(s.nodes.size());
    for (size_t n = 0; n < s.nodes.size(); ++n)
        inputs[n].resize(s.nodes[n].netlist->numInputs());

    // OT phase, mirroring the garbler, then the labels in its frame.
    size_t base = chan.bytesReceived();
    const size_t uplink_base = chan.bytesSent();
    if (!s.otChoices.empty()) {
        std::unique_ptr<OtExtReceiver> fresh;
        OtExtReceiver *ot = nullptr;
        if (res.otSetupReused) {
            if (cache == nullptr || cache->receiver == nullptr ||
                !cache->receiver->ready())
                throw NetError("garbler expects a cached OT setup, "
                               "but this connection has none");
            cache->receiver->rebind(chan, chan);
            ot = cache->receiver.get();
        } else {
            fresh = std::make_unique<OtExtReceiver>(chan, chan,
                                                    otRandomKey());
            fresh->start();
            fresh->setup();
            ot = fresh.get();
        }
        ot->sendChoices(s.otChoices);
        const std::vector<Label> labels = ot->receiveLabels();
        for (size_t k = 0; k < labels.size(); ++k)
            inputs[s.otSlots[k].node][s.otSlots[k].bit] = labels[k];
        if (cache != nullptr && fresh != nullptr)
            cache->receiver = std::move(fresh);
    }
    for (const PortRef &p : s.otFrameSlots)
        inputs[p.node][p.bit] = chan.recvLabel();
    res.otBytes = chan.bytesReceived() - base;
    res.otUplinkBytes = chan.bytesSent() - uplink_base;

    base = chan.bytesReceived();
    for (const PortRef &p : s.directSlots)
        inputs[p.node][p.bit] = chan.recvLabel();
    res.inputLabelBytes = chan.bytesReceived() - base;

    // Per node: translate its links through their frame, then
    // evaluate, pulling tables from the stream as they arrive.
    std::vector<std::vector<Label>> outs(s.nodes.size());
    for (uint32_t n = 0; n < s.nodes.size(); ++n) {
        const EvaluatorNode &node = s.nodes[n];
        if (!node.links.empty()) {
            const std::vector<uint8_t> frame = transport.recvFrame();
            const LinkTableFrame header = parseLinkTableFrame(frame);
            if (header.node != n || header.count != node.links.size())
                throw NetError(
                    "link-table frame for node " +
                    std::to_string(header.node) + " (" +
                    std::to_string(header.count) +
                    " tables) arrived while evaluating node " +
                    std::to_string(n));
            res.linkBytes += frame.size();
            ++res.linkFrames;
            // row[lsb(Y)] = X ^ H(Y, tweak) for the active label Y.
            const uint8_t *row = frame.data() + header.payloadOffset;
            for (const EvaluatorLink &l : node.links) {
                const Label &y = outs[l.from.node][l.from.bit];
                inputs[n][l.bit] =
                    Label::fromBytes(row + (y.lsb() ? kLabelBytes : 0)) ^
                    RekeyedHasher(l.tweak)(y);
                row += 2 * kLabelBytes;
            }
        }
        const uint64_t tables = node.netlist->numAndGates();
        const uint64_t frames_before = transport.framesReceived();
        TableFrameReader in(chan, tables, tables > res.segmentTables);
        outs[n] = evaluateStreaming(*node.netlist, inputs[n], in);
        in.finish();
        res.tableBytes += tables * kTableBytes;
        res.tableSegments += transport.framesReceived() - frames_before;
    }

    // Decode bits, then echo the result so the garbler learns it too.
    base = chan.bytesReceived();
    res.outputs.resize(s.outputs.size());
    for (size_t i = 0; i < s.outputs.size(); ++i) {
        const bool decode = chan.recvBit();
        res.outputs[i] =
            outs[s.outputs[i].node][s.outputs[i].bit].lsb() != decode;
    }
    res.outputDecodeBytes = chan.bytesReceived() - base;
    for (bool b : res.outputs)
        chan.sendBit(b);
    chan.flush();
    res.controlBytes += res.outputs.size();

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.linkBytes + res.outputDecodeBytes;
    res.seconds =
        std::chrono::duration<double>(Clock::now() - s.start).count();
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, uint64_t seed,
                 const RemoteOptions &opts)
{
    StreamingGarbler garbler(netlist, seed);
    GarblerNode node;
    node.live = &garbler;
    return garbleMonolithic(netlist, garbler_bits, transport,
                            garbler.inputs(), std::move(node), opts);
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, const GarbledInstance &instance,
                 const RemoteOptions &opts)
{
    if (instance.numInputs != netlist.numInputs() ||
        instance.outputZero.size() != netlist.outputs.size() ||
        instance.tables.size() != netlist.numAndGates())
        throw std::invalid_argument(
            "runRemoteGarbler: instance does not match the netlist");
    GarblerNode node;
    node.captured = &instance;
    return garbleMonolithic(netlist, garbler_bits, transport,
                            instance.inputLabels(), std::move(node), opts);
}

RemoteResult
runRemoteEvaluator(const Netlist &netlist,
                   const std::vector<bool> &evaluator_bits,
                   Transport &transport, const RemoteOptions &opts)
{
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument(
            "runRemoteEvaluator: wrong evaluator input count");

    const uint32_t g = netlist.numGarblerInputs;
    const Fingerprint local = Fingerprint::of(netlist);
    EvaluatorSession s;
    s.fingerprintBytes = Fingerprint::kBytes;
    s.readFingerprint = [&local](const std::vector<uint8_t> &bytes) {
        const Fingerprint fp = Fingerprint::deserialize(bytes);
        if (!fp.sameCircuit(local))
            throw NetError("remote circuit mismatch: local {" +
                           local.shapeString() + "} vs garbler {" +
                           fp.shapeString() + "}");
        return fp.tail;
    };
    s.otChoices = evaluator_bits;
    s.otSlots.resize(netlist.numEvaluatorInputs);
    for (uint32_t i = 0; i < s.otSlots.size(); ++i)
        s.otSlots[i].bit = g + i;
    if (netlist.constOne != kNoWire)
        s.otFrameSlots.push_back({0, netlist.constOne});
    s.directSlots.resize(g);
    for (uint32_t i = 0; i < g; ++i)
        s.directSlots[i].bit = i;
    s.nodes.push_back({&netlist, {}});
    s.outputs.resize(netlist.outputs.size());
    for (uint32_t i = 0; i < s.outputs.size(); ++i)
        s.outputs[i].bit = i;

    RemoteResult res;
    res.gates = netlist.numGates();
    runEvaluatorSession(s, transport, opts, res);
    return res;
}

} // namespace haac
