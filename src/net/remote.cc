#include "net/remote.h"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/net_channel.h"
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
 * otMode or otCached value (otCachedFlag).
 */
struct Fingerprint
{
    uint32_t garblerInputs = 0;
    uint32_t evaluatorInputs = 0;
    uint32_t gates = 0;
    uint32_t andGates = 0;
    uint32_t outputs = 0;
    uint32_t constOne = 0;
    uint64_t reserved = 0;
    uint32_t segmentTables = 0;
    uint8_t otMode = 1;
    uint8_t otCached = 0;

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
        w.u64(reserved);
        w.u32(segmentTables);
        w.u8(otMode);
        w.u8(otCached);
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
        fp.reserved = r.u64();
        fp.segmentTables = r.u32();
        fp.otMode = r.u8();
        fp.otCached = r.u8();
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

/** Live garbling: labels and tables from a two-phase garbler. */
struct LiveGarblerSource
{
    StreamingGarbler garbler;

    LiveGarblerSource(const Netlist &netlist, uint64_t seed)
        : garbler(netlist, seed)
    {
    }

    const InputLabels &inputs() const { return garbler.inputs(); }

    void
    emitTables(NetChannel &chan)
    {
        garbler.run([&](const GarbledTable &t) { chan.sendTable(t); });
    }

    bool decodeBit(size_t i) const { return garbler.decodeBit(i); }
};

/**
 * Replay of a pre-garbled instance (gc/instance.h): the input labels
 * are expanded from its seed once, here, for the whole session.
 */
struct InstanceGarblerSource
{
    const GarbledInstance *instance;
    InputLabels labels;

    explicit InstanceGarblerSource(const GarbledInstance &inst)
        : instance(&inst), labels(inst.inputLabels())
    {
    }

    const InputLabels &inputs() const { return labels; }

    void
    emitTables(NetChannel &chan)
    {
        for (const GarbledTable &t : instance->tables)
            chan.sendTable(t);
    }

    bool decodeBit(size_t i) const { return instance->decodeBit(i); }
};

/**
 * The garbler's protocol, parameterized over where labels and tables
 * come from (a live StreamingGarbler or a captured GarbledInstance).
 * Either way every label is read from one InputLabels, and the wire
 * traffic is identical.
 */
template <typename Source>
RemoteResult
runGarblerFrom(const Netlist &netlist,
               const std::vector<bool> &garbler_bits,
               Transport &transport, Source &src, bool pooled,
               const RemoteOptions &opts)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument(
            "runRemoteGarbler: wrong garbler input count");

    const uint32_t segment_tables = clampSegment(opts.segmentTables);
    const auto start = Clock::now();

    RemoteResult res;
    res.gates = netlist.numGates();
    res.segmentTables = segment_tables;
    res.pooledGarbling = pooled;
    NetChannel chan(transport, size_t(segment_tables) * kTableBytes);

    const uint32_t eval_base = netlist.numGarblerInputs;
    const uint32_t m = netlist.numEvaluatorInputs;
    res.otSetupReused = canReuseOtSetup(opts.otCache, m);

    // Fingerprint: agree on the circuit before any label moves.
    Fingerprint fp = Fingerprint::of(netlist);
    fp.segmentTables = segment_tables;
    fp.otCached = res.otSetupReused ? 1 : 0;
    const std::vector<uint8_t> fp_bytes = fp.serialize();
    chan.sendBytes(fp_bytes.data(), fp_bytes.size());
    chan.flush();
    res.controlBytes += fp_bytes.size();

    // OT phase (before any other label traffic), then the public
    // constant-one label, counted as OT traffic.
    const InputLabels &labels = src.inputs();
    std::vector<Label> m0(m), m1(m);
    for (uint32_t i = 0; i < m; ++i) {
        m0[i] = labels.activeLabel(eval_base + i, false);
        m1[i] = labels.activeLabel(eval_base + i, true);
    }
    sendOtLabels(chan, m0, m1, opts.otCache, res);
    if (netlist.constOne != kNoWire) {
        chan.sendLabel(labels.activeLabel(netlist.constOne, true));
        res.otBytes += kLabelBytes;
    }
    chan.flush();

    // Garbler's own input labels, flushed so the table stream
    // starts on a frame boundary (both sides' segment counters
    // must window the same frames).
    size_t base = chan.bytesSent();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        chan.sendLabel(labels.activeLabel(i, garbler_bits[i]));
    res.inputLabelBytes = chan.bytesSent() - base;
    chan.flush();

    // Table stream: one frame per segment of tables.
    base = chan.bytesSent();
    const uint64_t frames_before = transport.framesSent();
    src.emitTables(chan);
    chan.flush();
    res.tableBytes = chan.bytesSent() - base;
    res.tableSegments = transport.framesSent() - frames_before;

    std::vector<bool> decode(netlist.outputs.size());
    for (size_t i = 0; i < decode.size(); ++i)
        decode[i] = src.decodeBit(i);
    sendDecodeReceiveEcho(chan, decode, res);

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.outputDecodeBytes;
    res.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    return res;
}

} // namespace

uint32_t
clampSegment(uint32_t segment_tables)
{
    return segment_tables > 0 ? segment_tables : 1;
}

bool
canReuseOtSetup(const OtConnectionCache *cache, uint32_t ots)
{
    return cache != nullptr && cache->sender != nullptr &&
           cache->sender->ready() && ots > 0;
}

bool
otCachedFlag(uint8_t ot_mode, uint8_t ot_cached)
{
    if (ot_mode != 1)
        throw NetError("garbler fingerprint names OT mode " +
                       std::to_string(ot_mode) +
                       "; this build speaks only IKNP (1)");
    if (ot_cached > 1)
        throw NetError("garbler fingerprint has otCached byte " +
                       std::to_string(ot_cached) + "; expected 0 or 1");
    return ot_cached == 1;
}

void
sendOtLabels(ByteChannel &chan, const std::vector<Label> &m0,
             const std::vector<Label> &m1, OtConnectionCache *cache,
             RemoteResult &res)
{
    const size_t base = chan.bytesSent();
    const size_t uplink_base = chan.bytesReceived();
    if (!m0.empty()) {
        std::unique_ptr<OtExtSender> fresh;
        OtExtSender *ot = nullptr;
        if (res.otSetupReused) {
            cache->sender->rebind(chan, chan);
            ot = cache->sender.get();
        } else {
            fresh = std::make_unique<OtExtSender>(chan, chan,
                                                  otRandomKey());
            fresh->setup(); // blocks on evaluator's base-OT key
            ot = fresh.get();
        }
        ot->send(m0, m1);
        if (cache != nullptr && fresh != nullptr)
            cache->sender = std::move(fresh);
    }
    res.otBytes += chan.bytesSent() - base;
    res.otUplinkBytes += chan.bytesReceived() - uplink_base;
}

std::vector<Label>
receiveOtLabels(ByteChannel &chan, const std::vector<bool> &choices,
                bool cached, OtConnectionCache *cache, RemoteResult &res)
{
    // The fingerprint's otCached byte decides for both sides whether
    // the base phase runs: a garbler reusing its cached extension
    // sender would deadlock against a fresh receiver (and vice versa).
    res.otSetupReused = cached;
    const size_t uplink_base = chan.bytesSent();
    const size_t base = chan.bytesReceived();
    std::vector<Label> labels;
    if (!choices.empty()) {
        std::unique_ptr<OtExtReceiver> fresh;
        OtExtReceiver *ot = nullptr;
        if (cached) {
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
        ot->sendChoices(choices);
        labels = ot->receiveLabels();
        if (cache != nullptr && fresh != nullptr)
            cache->receiver = std::move(fresh);
    }
    res.otBytes += chan.bytesReceived() - base;
    res.otUplinkBytes += chan.bytesSent() - uplink_base;
    return labels;
}

void
sendDecodeReceiveEcho(ByteChannel &chan, const std::vector<bool> &decode,
                      RemoteResult &res)
{
    const size_t base = chan.bytesSent();
    for (bool b : decode)
        chan.sendBit(b);
    res.outputDecodeBytes = chan.bytesSent() - base;
    chan.flush();

    // Result echo: the evaluator decodes first and shares the output.
    res.outputs.resize(decode.size());
    for (size_t i = 0; i < res.outputs.size(); ++i)
        res.outputs[i] = chan.recvBit();
    res.controlBytes += res.outputs.size();
}

void
receiveDecodeSendEcho(ByteChannel &chan,
                      const std::vector<Label> &output_labels,
                      RemoteResult &res)
{
    const size_t base = chan.bytesReceived();
    std::vector<bool> decode(output_labels.size());
    for (size_t i = 0; i < decode.size(); ++i)
        decode[i] = chan.recvBit();
    res.outputDecodeBytes = chan.bytesReceived() - base;
    res.outputs.resize(output_labels.size());
    for (size_t i = 0; i < output_labels.size(); ++i)
        res.outputs[i] = output_labels[i].lsb() != decode[i];

    // Echo the result so the garbler learns it too.
    for (bool b : res.outputs)
        chan.sendBit(b);
    chan.flush();
    res.controlBytes += res.outputs.size();
}

RemoteResult
runRemoteGarbler(const Netlist &netlist,
                 const std::vector<bool> &garbler_bits,
                 Transport &transport, uint64_t seed,
                 const RemoteOptions &opts)
{
    LiveGarblerSource src(netlist, seed);
    return runGarblerFrom(netlist, garbler_bits, transport, src, false,
                          opts);
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
    InstanceGarblerSource src(instance);
    return runGarblerFrom(netlist, garbler_bits, transport, src, true,
                          opts);
}

RemoteResult
runRemoteEvaluator(const Netlist &netlist,
                   const std::vector<bool> &evaluator_bits,
                   Transport &transport, const RemoteOptions &opts)
{
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument(
            "runRemoteEvaluator: wrong evaluator input count");

    const auto start = Clock::now();
    RemoteResult res;
    res.gates = netlist.numGates();
    NetChannel chan(transport,
                    size_t(clampSegment(opts.segmentTables)) *
                        kTableBytes);

    std::vector<uint8_t> fp_bytes(Fingerprint::kBytes);
    chan.recvBytes(fp_bytes.data(), fp_bytes.size());
    res.controlBytes += fp_bytes.size();
    const Fingerprint remote_fp = Fingerprint::deserialize(fp_bytes);
    const bool ot_cached =
        otCachedFlag(remote_fp.otMode, remote_fp.otCached);
    res.segmentTables = remote_fp.segmentTables;
    const Fingerprint local_fp = Fingerprint::of(netlist);
    if (!remote_fp.sameCircuit(local_fp))
        throw NetError("remote circuit mismatch: local {" +
                       local_fp.shapeString() + "} vs garbler {" +
                       remote_fp.shapeString() + "}");

    const uint32_t eval_base = netlist.numGarblerInputs;
    std::vector<Label> inputs(netlist.numInputs());

    // OT phase, mirroring the garbler, then the constant-one label.
    const std::vector<Label> labels = receiveOtLabels(
        chan, evaluator_bits, ot_cached, opts.otCache, res);
    for (size_t i = 0; i < labels.size(); ++i)
        inputs[eval_base + i] = labels[i];
    if (netlist.constOne != kNoWire) {
        inputs[netlist.constOne] = chan.recvLabel();
        res.otBytes += kLabelBytes;
    }

    // Garbler input labels.
    size_t base = chan.bytesReceived();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        inputs[i] = chan.recvLabel();
    res.inputLabelBytes = chan.bytesReceived() - base;

    // Evaluate, pulling tables from the stream as they arrive.
    base = chan.bytesReceived();
    const uint64_t frames_before = transport.framesReceived();
    const std::vector<Label> out_labels = evaluateStreaming(
        netlist, inputs, [&] { return chan.recvTable(); });
    res.tableBytes = chan.bytesReceived() - base;
    res.tableSegments = transport.framesReceived() - frames_before;

    receiveDecodeSendEcho(chan, out_labels, res);

    res.totalBytes = res.tableBytes + res.inputLabelBytes + res.otBytes +
                     res.outputDecodeBytes;
    res.seconds = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    return res;
}

} // namespace haac
