/**
 * @file
 * The shard wire protocol: what a coordinator and a shard worker say
 * to each other over a framed Transport.
 *
 * After a ShardCoordinator <-> ShardWorker handshake, each frame opens
 * with a one-byte message tag:
 *
 *   coordinator -> worker
 *     Job    one shard's whole world: sub-config (the settable
 *            HaacConfig fields; pipeline depths are constants),
 *            mode, the (shared) program with cross-shard wires
 *            marked live, this shard's
 *            GE streams, the import/export manifests, and — when the
 *            caller wants circuit outputs — the plaintext values of
 *            the primary inputs and of every import.
 *     Round  the import ready-cycles for one timing iteration.
 *     Quit   session over; the worker returns.
 *
 *   worker -> coordinator
 *     Result one Round's answer: SimStats + energy for this shard,
 *            the ready cycle of every export, and (first Round only)
 *            the plaintext values the Job asked for.
 *
 * Rounds exist because shards stall on each other: the coordinator
 * replays each round's export times back as the next round's import
 * times until the schedule reaches a fixed point (the instruction
 * dependence graph is acyclic, so iteration from zero converges), and
 * the final round is the measured multi-core schedule.
 */
#ifndef HAAC_SHARD_PROTO_H
#define HAAC_SHARD_PROTO_H

#include <cstdint>
#include <vector>

#include "core/compiler/streams.h"
#include "core/isa/program.h"
#include "core/sim/engine.h"
#include "core/sim/stats.h"
#include "net/transport.h"
#include "platform/energy_model.h"

namespace haac::shard {

enum class ShardMsg : uint8_t
{
    Job = 1,
    Round = 2,
    Result = 3,
    Quit = 4,
};

/** Tag of a received frame; throws NetError on an empty/unknown frame. */
ShardMsg frameTag(const std::vector<uint8_t> &frame);

struct ShardJob
{
    /** Shard-local hardware (numGes == streams.ge.size()). */
    HaacConfig config;
    SimMode mode = SimMode::Combined;

    /** Whole program, absolute addresses, cross-shard wires live. */
    HaacProgram program;

    /** This shard's GE streams only. */
    StreamSet streams;

    std::vector<uint32_t> imports;
    std::vector<uint32_t> exports;

    /** Addresses whose plaintext values the Result must carry. */
    std::vector<uint32_t> valueAddrs;

    /** Plaintext value per import (parallel to imports). */
    std::vector<bool> importValues;

    /** Plaintext value of wire addresses [1, numInputs], in order. */
    std::vector<bool> inputValues;

    /** False: skip the functional pass (timing-only run). */
    bool wantValues = false;
};

struct ShardResultMsg
{
    SimStats stats;
    EnergyBreakdown energy;

    /** Ready cycle per export (parallel to ShardJob::exports). */
    std::vector<uint64_t> exportReady;

    /** Values per ShardJob::valueAddrs; only on the first Result. */
    std::vector<bool> values;
    bool hasValues = false;
};

std::vector<uint8_t> encodeJob(const ShardJob &job);
ShardJob decodeJob(const std::vector<uint8_t> &frame);

std::vector<uint8_t> encodeRound(const std::vector<uint64_t> &importReady);
std::vector<uint64_t> decodeRound(const std::vector<uint8_t> &frame);

std::vector<uint8_t> encodeResult(const ShardResultMsg &result);
ShardResultMsg decodeResult(const std::vector<uint8_t> &frame);

std::vector<uint8_t> encodeQuit();

} // namespace haac::shard

#endif // HAAC_SHARD_PROTO_H
