/**
 * @file
 * The two-machine GC protocol: one side of runProtocol() per process.
 *
 * Both parties hold the same Netlist (the circuit is public; a
 * 38-byte fingerprint exchanged up front catches disagreement before
 * any label moves and carries the garbler's base-OT cache decision).
 * The protocol then runs the OT phase — base OT + IKNP extension
 * (gc/ot_ext.h) — after which the garbler streams input labels,
 * garbled tables in segments, and decode bits, while the evaluator
 * consumes tables the moment they arrive via the gc/streaming
 * machinery: memory stays O(wires) while communication is
 * O(AND gates).
 *
 * Byte accounting matches the in-process ProtocolResult *exactly*,
 * category by category (tables, input labels, OT down- and uplink,
 * output decode): the four downlink categories count protocol payload
 * in the garbler→evaluator direction, otUplinkBytes the OT's
 * evaluator→garbler traffic, all measured identically by both sides.
 * The circuit fingerprint and the result echo that lets the garbler
 * learn the output too are control traffic, reported separately — the
 * in-process baseline has no analogue for them.
 *
 * The chained protocol (chain/link.h) runs the same OT and
 * decode/echo phases through the helpers declared at the end of this
 * header; only its fingerprint, direct labels and link frames differ.
 */
#ifndef HAAC_NET_REMOTE_H
#define HAAC_NET_REMOTE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "gc/ot_ext.h"
#include "net/transport.h"

namespace haac {

struct GarbledInstance;

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

    /** @name Garbler→evaluator payload, same categories as
     *  ProtocolResult (identical on both sides of the wire). */
    /// @{
    uint64_t tableBytes = 0;
    uint64_t inputLabelBytes = 0;
    uint64_t otBytes = 0;
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

/** @name Protocol phases shared with the chained runner (chain/link.h)
 *
 * Each phase adds its own byte categories to the RemoteResult it is
 * handed; none of them flushes except where noted, so the caller
 * decides what shares a transport frame.
 */
/// @{

/** Segment size actually used: 0 means 1 table per segment. */
uint32_t clampSegment(uint32_t segment_tables);

/**
 * Garbler: whether this session can skip the base-OT phase — the
 * connection's cache holds a ready extension sender and there is at
 * least one OT to run. The answer travels in the fingerprint's
 * otCached byte, so both sides agree before any OT traffic.
 */
bool canReuseOtSetup(const OtConnectionCache *cache, uint32_t ots);

/**
 * Evaluator: validate the fingerprint's OT bytes and return the
 * otCached flag. IKNP (1) is the only OT this build speaks and
 * otCached is a strict boolean; anything else is a NetError, raised
 * before any label moves.
 */
bool otCachedFlag(uint8_t ot_mode, uint8_t ot_cached);

/**
 * Garbler's IKNP phase: one batch transferring m0[i] or m1[i] per
 * evaluator choice. Reuses @p cache's sender when res.otSetupReused
 * (see canReuseOtSetup), else runs a fresh base phase and stores the
 * new sender in @p cache (when non-null). An empty batch moves
 * nothing. Adds to res.otBytes and res.otUplinkBytes.
 */
void sendOtLabels(ByteChannel &chan, const std::vector<Label> &m0,
                  const std::vector<Label> &m1, OtConnectionCache *cache,
                  RemoteResult &res);

/**
 * Evaluator's side of sendOtLabels: the chosen label per choice bit.
 * @p cached is the fingerprint's otCached flag; a cached session
 * without a ready receiver in @p cache is a NetError. Sets
 * res.otSetupReused and adds to res.otBytes / res.otUplinkBytes.
 */
std::vector<Label> receiveOtLabels(ByteChannel &chan,
                                   const std::vector<bool> &choices,
                                   bool cached, OtConnectionCache *cache,
                                   RemoteResult &res);

/**
 * Garbler's last phase: send @p decode (flushed), then receive the
 * evaluator's result echo into res.outputs. Sets
 * res.outputDecodeBytes and adds the echo to res.controlBytes.
 */
void sendDecodeReceiveEcho(ByteChannel &chan,
                           const std::vector<bool> &decode,
                           RemoteResult &res);

/**
 * Evaluator's last phase: receive one decode bit per output label,
 * decode into res.outputs, and echo them back (flushed). Sets
 * res.outputDecodeBytes and adds the echo to res.controlBytes.
 */
void receiveDecodeSendEcho(ByteChannel &chan,
                           const std::vector<Label> &output_labels,
                           RemoteResult &res);

/// @}

} // namespace haac

#endif // HAAC_NET_REMOTE_H
