#include "gc/protocol.h"

#include <chrono>
#include <stdexcept>

#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"

namespace haac {

namespace {

/** Seed tags for the two parties' in-process OT randomness. */
constexpr uint64_t kOtSenderTag = 0x4f545f5347ull;   // "OT_SG"
constexpr uint64_t kOtReceiverTag = 0x4f545f5245ull; // "OT_RE"

} // namespace

/**
 * One thread drives both endpoints through the in-process FIFOs in
 * wire order. The OT phase must run before any other
 * garbler→evaluator traffic: the channels are strict FIFOs, and the
 * evaluator has to consume the base-OT points and masked labels at
 * the head of the stream while the garbler is still mid-protocol.
 */
ProtocolResult
runProtocol(const Netlist &netlist, const std::vector<bool> &garbler_bits,
            const std::vector<bool> &evaluator_bits, uint64_t seed)
{
    if (garbler_bits.size() != netlist.numGarblerInputs)
        throw std::invalid_argument("protocol: wrong garbler input count");
    if (evaluator_bits.size() != netlist.numEvaluatorInputs)
        throw std::invalid_argument("protocol: wrong evaluator input count");

    ProtocolResult res;
    DuplexChannel chan;
    StreamingGarbler garbler(netlist, seed);
    const InputLabels &labels = garbler.inputs();

    const uint32_t eval_base = netlist.numGarblerInputs;
    const uint32_t m = netlist.numEvaluatorInputs;

    // --- OT phase: both endpoints interleaved in protocol order. ---
    std::vector<Label> eval_labels;
    if (m > 0) {
        OtExtReceiver ot_recv(chan.toGarbler, chan.toEvaluator,
                              splitmix64(seed ^ kOtReceiverTag));
        OtExtSender ot_send(chan.toEvaluator, chan.toGarbler,
                            splitmix64(seed ^ kOtSenderTag));
        ot_recv.start();
        ot_send.setup();
        ot_recv.setup();
        ot_recv.sendChoices(evaluator_bits);
        std::vector<Label> m0(m), m1(m);
        for (uint32_t i = 0; i < m; ++i) {
            m0[i] = labels.activeLabel(eval_base + i, false);
            m1[i] = labels.activeLabel(eval_base + i, true);
        }
        ot_send.send(m0, m1);
        eval_labels = ot_recv.receiveLabels();
    }
    if (netlist.constOne != kNoWire)
        chan.toEvaluator.sendLabel(labels.activeLabel(netlist.constOne, true));
    res.otBytes = chan.toEvaluator.bytesSent();
    res.otUplinkBytes = chan.toGarbler.bytesSent();

    // --- Remaining garbler traffic: tables, labels, decode bits. ---
    size_t base = chan.toEvaluator.bytesSent();
    garbler.run([&](const GarbledTable &t) { chan.toEvaluator.sendTable(t); });
    res.tableBytes = chan.toEvaluator.bytesSent() - base;

    base = chan.toEvaluator.bytesSent();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        chan.toEvaluator.sendLabel(labels.activeLabel(i, garbler_bits[i]));
    res.inputLabelBytes = chan.toEvaluator.bytesSent() - base;

    for (size_t i = 0; i < netlist.outputs.size(); ++i)
        chan.toEvaluator.sendBit(garbler.decodeBit(i));
    res.outputDecodeBytes = netlist.outputs.size();

    // --- Evaluator side: consume the stream, evaluate, decode. The
    // garbler's labels follow the tables on the wire, so the tables
    // are buffered before the gate walk starts. ---
    std::vector<Label> inputs(netlist.numInputs());
    for (uint32_t i = 0; i < m; ++i)
        inputs[eval_base + i] = eval_labels[i];
    if (netlist.constOne != kNoWire)
        inputs[netlist.constOne] = chan.toEvaluator.recvLabel();

    std::vector<GarbledTable> tables(garbler.tablesEmitted());
    for (GarbledTable &t : tables)
        t = chan.toEvaluator.recvTable();
    for (uint32_t i = 0; i < netlist.numGarblerInputs; ++i)
        inputs[i] = chan.toEvaluator.recvLabel();

    std::vector<bool> decode(netlist.outputs.size());
    for (size_t i = 0; i < decode.size(); ++i)
        decode[i] = chan.toEvaluator.recvBit();

    size_t next = 0;
    const std::vector<Label> out_labels = evaluateStreaming(
        netlist, inputs, [&] { return tables[next++]; });
    res.outputs.resize(out_labels.size());
    for (size_t i = 0; i < out_labels.size(); ++i)
        res.outputs[i] = out_labels[i].lsb() != decode[i];
    // The downlink total is measured independently off the channel
    // counter, so the tests' "totalBytes == sum of categories"
    // assertion stays a real cross-check that the category windows
    // tile the stream exactly.
    res.totalBytes = chan.toEvaluator.bytesSent();
    return res;
}

SoftwareGcTiming
timeSoftwareGc(const Netlist &netlist, uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    SoftwareGcTiming t;
    t.gates = netlist.numGates();

    auto start = Clock::now();
    const GarbledInstance inst = captureGarbling(netlist, seed);
    t.garbleSeconds = std::chrono::duration<double>(Clock::now() -
                                                    start).count();

    // All-zero inputs: the zero labels, except the constant-one wire.
    const InputLabels labels = inst.inputLabels();
    std::vector<Label> inputs = labels.zero;
    if (netlist.constOne != kNoWire)
        inputs[netlist.constOne] = labels.activeLabel(netlist.constOne, true);

    size_t next = 0;
    start = Clock::now();
    const std::vector<Label> outs = evaluateStreaming(
        netlist, inputs, [&] { return inst.tables[next++]; });
    t.evaluateSeconds = std::chrono::duration<double>(Clock::now() -
                                                      start).count();
    (void)outs;
    return t;
}

} // namespace haac
