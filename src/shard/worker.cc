#include "shard/worker.h"

#include <algorithm>
#include <optional>

#include "core/sim/engine.h"
#include "platform/energy_model.h"
#include "shard/proto.h"

namespace haac::shard {

namespace {

/**
 * Most wire addresses a Job may announce. The engine and the value pass
 * keep state per address (8 B of ready cycles, a value bit), so this
 * bounds what a ~100-byte frame can make a worker allocate: 2^25 is
 * 2.4x the 13.85 M wires of paper-scale BubbSt, the largest workload.
 */
constexpr uint32_t kMaxJobAddrs = uint32_t(1) << 25;

/**
 * Refuse, before any simulation, a Job that the value pass or the
 * engine would index out of range with, or size its per-wire state
 * beyond kMaxJobAddrs: every index and address the worker reads from
 * it must name part of its program.
 */
void
validateJob(const ShardJob &job)
{
    const auto refuse = [](const std::string &why) {
        throw NetError("shard job: " + why);
    };
    const std::string bad_config = job.config.check();
    if (!bad_config.empty())
        refuse(bad_config);
    if (job.streams.ge.size() != job.config.numGes)
        refuse("config expects " + std::to_string(job.config.numGes) +
               " GEs but the stream set carries " +
               std::to_string(job.streams.ge.size()));

    const HaacProgram &prog = job.program;
    const std::string bad_program = prog.check();
    if (!bad_program.empty())
        refuse("program: " + bad_program);
    const auto below = [](const std::vector<uint32_t> &v, size_t limit) {
        return std::all_of(v.begin(), v.end(),
                           [limit](uint32_t x) { return x < limit; });
    };
    const size_t addrs = prog.numAddrs();
    if (addrs > kMaxJobAddrs)
        refuse("program has " + std::to_string(addrs) +
               " wire addresses, more than the " +
               std::to_string(kMaxJobAddrs) + " a worker simulates");
    for (const GeStreams &ge : job.streams.ge)
        if (ge.instrs.size() != ge.instrIdx.size() ||
            !below(ge.instrIdx, prog.instrs.size()) ||
            !below(ge.oorAddrs, addrs))
            refuse("a GE stream names instructions or wires outside "
                   "the program");
    if (!below(job.imports, addrs) || !below(job.exports, addrs) ||
        !below(job.valueAddrs, addrs))
        refuse("manifest address outside the program");
    if (job.wantValues &&
        (job.inputValues.size() != prog.numInputs ||
         job.importValues.size() != job.imports.size()))
        refuse("value counts disagree with the program and imports");
}

/**
 * The values the Job asked for, from the one plaintext interpreter run
 * over this shard's own instructions only: primary inputs and imports
 * hold what the coordinator sent, so every owned wire is computed here.
 */
std::vector<bool>
shardValues(const ShardJob &job)
{
    const HaacProgram &prog = job.program;
    std::vector<bool> vals(prog.numAddrs(), false);
    std::copy(job.inputValues.begin(), job.inputValues.end(),
              vals.begin() + 1);
    for (size_t i = 0; i < job.imports.size(); ++i)
        vals[job.imports[i]] = job.importValues[i];

    std::vector<bool> owned(prog.instrs.size(), false);
    for (const GeStreams &ge : job.streams.ge)
        for (uint32_t idx : ge.instrIdx)
            owned[idx] = true;
    executePlainInstrs(prog, vals, &owned);

    std::vector<bool> wanted;
    wanted.reserve(job.valueAddrs.size());
    for (uint32_t addr : job.valueAddrs)
        wanted.push_back(vals[addr]);
    return wanted;
}

} // namespace

WorkerSummary
runShardWorkerLoop(Transport &transport)
{
    WorkerSummary summary;
    std::optional<ShardJob> job;
    std::vector<bool> values;
    bool values_pending = false;
    // The current job's instruction count, folded into the summary
    // once per job (every round re-simulates the same instructions).
    uint64_t job_instructions = 0;

    for (;;) {
        const std::vector<uint8_t> frame = transport.recvFrame();
        switch (frameTag(frame)) {
          case ShardMsg::Job: {
            summary.instructions += job_instructions;
            job_instructions = 0;
            job = decodeJob(frame);
            validateJob(*job);
            ++summary.jobs;
            values_pending = job->wantValues;
            if (values_pending)
                values = shardValues(*job);
            break;
          }
          case ShardMsg::Round: {
            if (!job)
                throw NetError("shard round before any job");
            RemoteWireEnv env;
            env.addrs = job->imports;
            env.readyCycles = decodeRound(frame);
            if (env.readyCycles.size() != env.addrs.size())
                throw NetError(
                    "shard round: " +
                    std::to_string(env.readyCycles.size()) +
                    " ready cycles for " +
                    std::to_string(env.addrs.size()) + " imports");
            ShardSimResult sim;
            try {
                sim = runShardSimulation(job->program, job->config,
                                         job->streams, job->mode, env,
                                         job->exports);
            } catch (const SimStalledError &e) {
                // A manifest that leaves out an import the streams read.
                throw NetError(std::string("shard round: ") + e.what());
            }

            ShardResultMsg result;
            result.stats = sim.stats;
            result.energy = modelEnergy(job->config, sim.stats);
            result.exportReady = sim.exportReady;
            if (values_pending) {
                result.values = values;
                result.hasValues = true;
                values_pending = false;
            }
            transport.sendFrame(encodeResult(result));

            ++summary.rounds;
            job_instructions = sim.stats.instructions;
            summary.lastStats = sim.stats;
            break;
          }
          case ShardMsg::Quit:
            summary.instructions += job_instructions;
            return summary;
          case ShardMsg::Result:
            throw NetError("shard worker received a Result frame");
        }
    }
}

WorkerSummary
serveShardWorker(Transport &transport)
{
    transport.handshake(PeerRole::ShardWorker);
    return runShardWorkerLoop(transport);
}

} // namespace haac::shard
