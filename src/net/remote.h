/**
 * @file
 * The two-party GC protocol over a Transport: one session runner per
 * party, and the monolithic session built on it.
 *
 * Both parties hold the same circuit (it is public). A session is one
 * fixed stream, whatever its flavor: a fingerprint that catches
 * circuit disagreement before any label moves and carries the
 * garbler's segment size and base-OT cache decision; one IKNP batch
 * (gc/ot_ext.h) for the evaluator's input labels; the garbler's direct
 * labels; then per node an optional link-table frame and the node's
 * AND tables in segments, which the evaluator consumes as they arrive
 * (gc/streaming.h, net/table_stream.h: on a stream of two segments or
 * more, socket I/O runs on a thread beside each walk), so memory stays
 * O(wires) while communication is O(AND gates); last the decode bits
 * and the evaluator's result echo.
 *
 * runGarblerSession() and runEvaluatorSession() walk that stream over
 * a session shape (GarblerSession / EvaluatorSession). A flavor only
 * builds the shape: runRemoteGarbler()/runRemoteEvaluator() describe a
 * one-node session with no links, chain/link.h an n-node plan, and
 * gc/protocol.h's runProtocol() runs the remote pair on two threads.
 *
 * Byte accounting is category-exact and identical on both sides: the
 * downlink categories (tables, input labels, OT, links, output decode)
 * count garbler→evaluator payload, otUplinkBytes the OT's
 * evaluator→garbler traffic. The fingerprint and the result echo are
 * control traffic, reported separately.
 */
#ifndef HAAC_NET_REMOTE_H
#define HAAC_NET_REMOTE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "gc/ot_ext.h"
#include "net/transport.h"

namespace haac {

struct GarbledInstance;
class StreamingGarbler;

/**
 * Per-connection OT-extension state for base-OT caching.
 *
 * The Chou-Orlandi base phase costs ~385 Curve25519 scalar
 * multiplications and 4 KB of traffic per side; the IKNP extension it
 * bootstraps handles any number of batches afterwards (column PRGs
 * and the hash tweak base advance per batch). A caller that keeps one
 * of these alive across sessions on a single connection pays the base
 * phase once: the first IKNP session populates it, and every later
 * session rebinds the endpoint to its own NetChannel and reuses the
 * extension directly. The garbler announces reuse in the fingerprint
 * (otCached byte), so both sides always agree on whether the base
 * phase runs. Never share one cache across connections or threads —
 * the two extension endpoints advance in lockstep only because
 * sessions on one connection are sequential.
 */
struct OtConnectionCache
{
    std::unique_ptr<OtExtSender> sender;     ///< garbler side
    std::unique_ptr<OtExtReceiver> receiver; ///< evaluator side
};

struct RemoteOptions
{
    /** Garbled tables per streamed segment frame (>= 1). */
    uint32_t segmentTables = 1024;
    /**
     * Borrowed per-connection OT cache; null runs the base-OT phase
     * every session, the pre-cache behavior.
     */
    OtConnectionCache *otCache = nullptr;
};

/** One party's view of a completed remote execution. */
struct RemoteResult
{
    /** Decoded circuit outputs (both parties learn them). */
    std::vector<bool> outputs;

    /** @name Garbler→evaluator payload (identical on both sides of
     *  the wire); totalBytes is the sum of the other five. */
    /// @{
    uint64_t tableBytes = 0;
    uint64_t inputLabelBytes = 0;
    uint64_t otBytes = 0;
    /** Link-table frames, headers included (chained sessions). */
    uint64_t linkBytes = 0;
    uint64_t outputDecodeBytes = 0;
    uint64_t totalBytes = 0;
    /// @}

    /**
     * Evaluator→garbler OT traffic (base-OT public key + masked
     * columns).
     */
    uint64_t otUplinkBytes = 0;

    /** Fingerprint + result echo (both ways). */
    uint64_t controlBytes = 0;
    /** Frames the table stream used (one per segment). */
    uint64_t tableSegments = 0;
    /** Frames the link-table stream used (one per linked node). */
    uint32_t linkFrames = 0;
    /**
     * Tables per segment the garbler actually streamed with — the
     * garbler's setting, carried to the evaluator in the fingerprint
     * (the evaluator's own option does not shape the stream).
     */
    uint32_t segmentTables = 0;
    uint64_t gates = 0;
    double seconds = 0;

    /** This session reused a cached base-OT + IKNP setup. */
    bool otSetupReused = false;
    /** Garbler replayed a pre-garbled instance (serve/pool.h). */
    bool pooledGarbling = false;
};

/**
 * Run the garbler's side over an established (handshaken) transport.
 *
 * @param garbler_bits this party's input bits (size numGarblerInputs).
 */
RemoteResult runRemoteGarbler(const Netlist &netlist,
                              const std::vector<bool> &garbler_bits,
                              Transport &transport, uint64_t seed,
                              const RemoteOptions &opts = {});

/**
 * Garbler's side replaying a pre-garbled @p instance (gc/instance.h)
 * instead of garbling inline: labels and tables come from the
 * capture, so the session-time cost is OT + streaming only. Traffic
 * is byte-identical to the inline overload at the instance's seed.
 *
 * @p instance must have been captured from this exact @p netlist and
 * must never be replayed twice (label reuse across sessions).
 */
RemoteResult runRemoteGarbler(const Netlist &netlist,
                              const std::vector<bool> &garbler_bits,
                              Transport &transport,
                              const GarbledInstance &instance,
                              const RemoteOptions &opts = {});

/**
 * Run the evaluator's side over an established (handshaken) transport.
 *
 * @param evaluator_bits this party's input bits.
 */
RemoteResult runRemoteEvaluator(const Netlist &netlist,
                                const std::vector<bool> &evaluator_bits,
                                Transport &transport,
                                const RemoteOptions &opts = {});

/** @name The session runner
 *
 * A session shape lists what each party sends or expects, in wire
 * order; the runners own every send, receive, flush and byte count.
 * Node inputs and outputs are addressed as PortRef{node, bit}: input
 * bit i of a node is its netlist's primary input wire i.
 */
/// @{

/** One bit of a session node: its @p bit-th input or output. */
struct PortRef
{
    uint32_t node = 0;
    uint32_t bit = 0;
};

/**
 * The fingerprint fields that are not circuit shape: the last 14 bytes
 * of every flavor's fingerprint, in the flavor's own order.
 */
struct FingerprintTail
{
    /** Always 0; a non-zero value names a table order not walked here. */
    uint64_t reserved = 0;
    /** The garbler's tables per segment frame. */
    uint32_t segmentTables = 0;
    /** 1 = IKNP, the only OT this build speaks. */
    uint8_t otMode = 1;
    /** 1 = the session reuses the connection's cached base-OT setup. */
    uint8_t otCached = 0;
};

/** What the garbler sends for one node, in wire order. */
struct GarblerNode
{
    /** Link-table frame (net/wire.h) sent ahead of the tables, or empty. */
    std::vector<uint8_t> linkFrame;
    /** The node's tables and decode bits: a live garbling, run during
     *  the session, or a capture replayed (exactly one is set). */
    StreamingGarbler *live = nullptr;
    const GarbledInstance *captured = nullptr;
};

struct GarblerSession
{
    /** RemoteResult::seconds counts from here: a builder that garbles
     *  or acquires its tables after building the shape counts that. */
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    /** The flavor's fingerprint around the runner's tail fields. */
    std::function<std::vector<uint8_t>(const FingerprintTail &)>
        writeFingerprint;
    /** The label pair of each evaluator choice, in choice order. */
    std::vector<Label> otZero, otOne;
    /** Public labels that share the OT's last frame (otBytes). */
    std::vector<Label> otFrameLabels;
    /** Labels of garbler inputs and constant ports (inputLabelBytes). */
    std::vector<Label> directLabels;
    std::vector<GarblerNode> nodes;
    /** Output bits whose decode bits end the stream, in output order. */
    std::vector<PortRef> outputs;
};

/** One link-driven input of an evaluator node. */
struct EvaluatorLink
{
    uint32_t bit = 0; ///< the consuming input bit
    PortRef from;     ///< the producing output bit
    uint64_t tweak = 0; ///< the row hash's tweak
};

struct EvaluatorNode
{
    const Netlist *netlist = nullptr;
    /** Link-driven inputs in row order; any means a link frame
     *  precedes the node's tables. */
    std::vector<EvaluatorLink> links;
};

struct EvaluatorSession
{
    /** As GarblerSession::start. */
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    size_t fingerprintBytes = 0;
    /** Parse the garbler's fingerprint; a NetError if its circuit
     *  shape is not this one. */
    std::function<FingerprintTail(const std::vector<uint8_t> &)>
        readFingerprint;
    /** Choice bits and where each chosen label goes. */
    std::vector<bool> otChoices;
    std::vector<PortRef> otSlots;
    /** Where the labels of GarblerSession's lists of the same names go. */
    std::vector<PortRef> otFrameSlots;
    std::vector<PortRef> directSlots;
    std::vector<EvaluatorNode> nodes;
    std::vector<PortRef> outputs;
};

/**
 * The garbler's side of one session. Reuses @p opts.otCache's sender
 * when it holds a ready one (else runs a fresh base phase and stores
 * the new sender there). Fills every byte and frame count of @p res,
 * segmentTables, otSetupReused, outputs (from the evaluator's echo)
 * and seconds; the caller sets the rest.
 */
void runGarblerSession(const GarblerSession &session, Transport &transport,
                       const RemoteOptions &opts, RemoteResult &res);

/**
 * The evaluator's side. Refuses a fingerprint whose OT mode is not
 * IKNP (1), whose otCached byte is not 0 or 1, or whose reserved field
 * is not 0 with a NetError before it sends a byte, and a cached session
 * without a ready receiver in @p opts.otCache. Fills @p res like
 * runGarblerSession.
 */
void runEvaluatorSession(const EvaluatorSession &session,
                         Transport &transport, const RemoteOptions &opts,
                         RemoteResult &res);

/// @}

} // namespace haac

#endif // HAAC_NET_REMOTE_H
