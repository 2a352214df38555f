#include "shard/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/compiler/streams.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "shard/partition.h"
#include "shard/proto.h"
#include "shard/worker.h"

namespace haac::shard {

namespace {

std::unique_ptr<Transport>
connectWorker(const std::string &endpoint)
{
    const auto [host, port] = splitEndpoint(endpoint, "127.0.0.1");
    return TcpTransport::connect(host, port);
}

/** Join loopback worker threads even when the coordinator throws. */
struct ThreadJoiner
{
    std::vector<std::thread> threads;

    ~ThreadJoiner()
    {
        for (std::thread &t : threads)
            if (t.joinable())
                t.join();
    }
};

/**
 * The shard's core: a proportional slice of the full machine, with a
 * 1/M share of the one memory package.
 */
HaacConfig
shardConfig(const HaacConfig &cfg, uint32_t shard_ges, uint32_t shards)
{
    HaacConfig sub = cfg;
    sub.numGes = shard_ges;
    // Proportional SRAM keeps per-GE queue capacity (and the write
    // buffer per GE) what the full machine had; exact at M=1.
    sub.queueSramBytes =
        std::max<size_t>(1, cfg.queueSramBytes * shard_ges / cfg.numGes);
    sub.writeBufferBytes =
        std::max<size_t>(1, cfg.writeBufferBytes * shard_ges / cfg.numGes);
    sub.dramBandwidthScale = cfg.dramBandwidthScale / double(shards);
    return sub;
}

} // namespace

ShardRunResult
runSharded(HaacProgram prog, const HaacConfig &cfg, SimMode mode,
           const ShardOptions &opts,
           const std::vector<bool> &garbler_bits,
           const std::vector<bool> &evaluator_bits, bool want_values)
{
    const StreamSet set = buildStreams(prog, cfg);
    const ShardPlan plan = partitionStreams(prog, set, opts.shards);
    const uint32_t m = plan.shardCount();
    // Never build a Job the workers refuse: each shard's 1/m share of
    // the bandwidth must meet HaacConfig's floor.
    if (cfg.dramBandwidthScale / m < HaacConfig::kMinDramBandwidthScale)
        throw std::invalid_argument(
            "runSharded: " + std::to_string(m) +
            " shards split the DRAM bandwidth below 1/1024 each");

    ShardRunResult out;
    out.shards = m;
    out.requested = opts.shards;
    out.crossWires = plan.crossWires;
    out.liveFlipped = markCrossShardLive(prog, plan);

    std::vector<bool> vals;
    if (want_values)
        vals = executePlainWires(prog, garbler_bits, evaluator_bits);

    // --- bring up one link per shard --------------------------------
    ThreadJoiner joiner;
    std::vector<std::unique_ptr<Transport>> links(m);
    if (opts.workers.empty()) {
        for (uint32_t s = 0; s < m; ++s) {
            auto [coord_end, worker_end] = LoopbackTransport::createPair();
            links[s] = std::move(coord_end);
            joiner.threads.emplace_back(
                [end = std::move(worker_end)]() mutable {
                    try {
                        serveShardWorker(*end);
                    } catch (const std::exception &) {
                        // Coordinator failure closes the pipe; the
                        // worker thread just winds down.
                    }
                });
        }
    } else {
        for (uint32_t s = 0; s < m; ++s)
            links[s] =
                connectWorker(opts.workers[s % opts.workers.size()]);
    }
    for (uint32_t s = 0; s < m; ++s)
        links[s]->handshake(PeerRole::ShardCoordinator);

    // --- dispatch jobs ----------------------------------------------
    // Per-shard value manifest: exports plus the primary outputs this
    // shard computes (the coordinator assembles the circuit outputs
    // from what workers measured, not from its own oracle).
    std::vector<std::vector<uint32_t>> value_addrs(m);
    if (want_values) {
        for (uint32_t s = 0; s < m; ++s)
            value_addrs[s] = plan.parts[s].exports;
        for (uint32_t addr : prog.outputs)
            if (addr > prog.numInputs)
                value_addrs[plan.shardOfInstr[addr - prog.numInputs - 1]]
                    .push_back(addr);
        for (auto &v : value_addrs) {
            std::sort(v.begin(), v.end());
            v.erase(std::unique(v.begin(), v.end()), v.end());
        }
    }

    std::vector<bool> input_values;
    if (want_values)
        input_values.assign(vals.begin() + 1,
                            vals.begin() + 1 + prog.numInputs);

    for (uint32_t s = 0; s < m; ++s) {
        const ShardPart &part = plan.parts[s];
        ShardJob job;
        job.config = shardConfig(cfg, uint32_t(part.geIds.size()), m);
        job.mode = mode;
        job.program = prog;
        job.streams = part.streams;
        job.imports = part.imports;
        job.exports = part.exports;
        job.wantValues = want_values;
        if (want_values) {
            job.valueAddrs = value_addrs[s];
            job.importValues.reserve(part.imports.size());
            for (uint32_t addr : part.imports)
                job.importValues.push_back(vals[addr]);
            job.inputValues = input_values;
        }
        links[s]->sendFrame(encodeJob(job));
    }

    // Import resolution: (producer shard, index into its exports).
    std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> source;
    for (uint32_t s = 0; s < m; ++s)
        for (uint32_t i = 0; i < plan.parts[s].exports.size(); ++i)
            source[plan.parts[s].exports[i]] = {s, i};

    // --- timing rounds to the cross-shard fixed point ---------------
    std::vector<std::vector<uint64_t>> ready(m);
    for (uint32_t s = 0; s < m; ++s)
        ready[s].assign(plan.parts[s].imports.size(), 0);

    std::vector<ShardResultMsg> last(m);
    std::vector<std::vector<bool>> shard_values(m);
    for (;;) {
        for (uint32_t s = 0; s < m; ++s)
            links[s]->sendFrame(encodeRound(ready[s]));
        for (uint32_t s = 0; s < m; ++s) {
            last[s] = decodeResult(links[s]->recvFrame());
            if (last[s].exportReady.size() !=
                plan.parts[s].exports.size())
                throw NetError("shard result: export count mismatch");
            if (last[s].hasValues)
                shard_values[s] = last[s].values;
        }
        ++out.rounds;

        bool changed = false;
        for (uint32_t s = 0; s < m; ++s) {
            for (size_t i = 0; i < plan.parts[s].imports.size(); ++i) {
                const auto &[p, idx] =
                    source.at(plan.parts[s].imports[i]);
                // The hop between shards goes through shared DRAM.
                const uint64_t t =
                    last[p].exportReady[idx] + cfg.dramLatency;
                if (t != ready[s][i]) {
                    ready[s][i] = t;
                    changed = true;
                }
            }
        }
        if (!changed) {
            out.converged = true;
            break;
        }
        if (out.rounds >= opts.maxRounds) {
            out.converged = false;
            break;
        }
    }
    for (uint32_t s = 0; s < m; ++s)
        links[s]->sendFrame(encodeQuit());

    // --- merge ------------------------------------------------------
    SimStats &agg = out.stats;
    agg.issuedPerGe.assign(cfg.numGes, 0);
    for (uint32_t s = 0; s < m; ++s) {
        const SimStats &st = last[s].stats;
        agg.cycles = std::max(agg.cycles, st.cycles);
        agg.instructions += st.instructions;
        agg.andOps += st.andOps;
        agg.xorOps += st.xorOps;
        agg.notOps += st.notOps;
        agg.instrBytes += st.instrBytes;
        agg.tableBytes += st.tableBytes;
        agg.oorAddrBytes += st.oorAddrBytes;
        agg.oorDataBytes += st.oorDataBytes;
        agg.liveWriteBytes += st.liveWriteBytes;
        agg.inputLoadBytes += st.inputLoadBytes;
        agg.liveWires += st.liveWires;
        agg.oorReads += st.oorReads;
        agg.stallOperand += st.stallOperand;
        agg.stallInstrQueue += st.stallInstrQueue;
        agg.stallTableQueue += st.stallTableQueue;
        agg.stallOorwQueue += st.stallOorwQueue;
        agg.stallBank += st.stallBank;
        agg.stallWriteBuffer += st.stallWriteBuffer;
        agg.swwReads += st.swwReads;
        agg.swwWrites += st.swwWrites;
        agg.forwardHits += st.forwardHits;
        for (size_t g = 0; g < plan.parts[s].geIds.size(); ++g) {
            if (g < st.issuedPerGe.size())
                agg.issuedPerGe[plan.parts[s].geIds[g]] =
                    st.issuedPerGe[g];
        }

        out.energy.halfGateJ += last[s].energy.halfGateJ;
        out.energy.crossbarJ += last[s].energy.crossbarJ;
        out.energy.sramJ += last[s].energy.sramJ;
        out.energy.othersJ += last[s].energy.othersJ;
        out.energy.hbm2PhyJ += last[s].energy.hbm2PhyJ;

        out.shardCycles.push_back(st.cycles);
        out.shardInstructions.push_back(st.instructions);
    }

    if (want_values) {
        std::unordered_map<uint32_t, bool> produced;
        for (uint32_t s = 0; s < m; ++s) {
            if (shard_values[s].size() != value_addrs[s].size())
                throw NetError("shard result: value count mismatch");
            for (size_t i = 0; i < value_addrs[s].size(); ++i)
                produced[value_addrs[s][i]] = shard_values[s][i];
        }
        out.outputs.reserve(prog.outputs.size());
        for (uint32_t addr : prog.outputs) {
            bool bit;
            if (addr <= prog.numInputs) {
                bit = vals[addr];
            } else {
                const auto it = produced.find(addr);
                if (it == produced.end())
                    throw NetError("shard result: no worker produced "
                                   "output wire " +
                                   std::to_string(addr));
                bit = it->second;
            }
            if (bit != vals[addr])
                throw std::runtime_error(
                    "shard worker value divergence on wire " +
                    std::to_string(addr) +
                    ": the distributed evaluation disagrees with the "
                    "coordinator's oracle");
            out.outputs.push_back(bit);
        }
        out.hasOutputs = true;
    }
    return out;
}

} // namespace haac::shard
