#include "shard/worker.h"

#include <algorithm>
#include <optional>

#include "core/sim/engine.h"
#include "platform/energy_model.h"
#include "shard/proto.h"

namespace haac::shard {

namespace {

/**
 * Functional pass over the shard's own instructions: imports and
 * primary inputs arrive pre-valued, own instructions run in ascending
 * global index (operand addresses are always smaller than the output
 * address, and a same-shard producer always has a smaller index), so
 * one sweep resolves every owned wire.
 */
std::vector<bool>
evalShardValues(const ShardJob &job)
{
    const HaacProgram &prog = job.program;
    std::vector<bool> vals(prog.numAddrs(), false);
    for (uint32_t w = 0; w < prog.numInputs &&
                         w < job.inputValues.size(); ++w)
        vals[w + 1] = job.inputValues[w];
    if (prog.constOneAddr != kOorAddr)
        vals[prog.constOneAddr] = true;
    for (size_t i = 0; i < job.imports.size() &&
                       i < job.importValues.size(); ++i)
        vals[job.imports[i]] = job.importValues[i];

    std::vector<uint32_t> own;
    for (const GeStreams &ge : job.streams.ge)
        own.insert(own.end(), ge.instrIdx.begin(), ge.instrIdx.end());
    std::sort(own.begin(), own.end());

    for (uint32_t idx : own) {
        const HaacInstruction &ins = prog.instrs[idx];
        const bool a = vals[ins.a];
        const bool b = vals[ins.b];
        bool out = false;
        switch (ins.op) {
          case HaacOp::And:
            out = a && b;
            break;
          case HaacOp::Xor:
            out = a != b;
            break;
          case HaacOp::Not:
            out = !a;
            break;
          case HaacOp::Nop:
            break;
        }
        vals[prog.outputAddrOf(idx)] = out;
    }

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
            const std::string bad_config = job->config.check();
            if (!bad_config.empty())
                throw NetError("shard job: " + bad_config);
            if (job->streams.ge.size() != job->config.numGes)
                throw NetError(
                    "shard job: config expects " +
                    std::to_string(job->config.numGes) +
                    " GEs but the stream set carries " +
                    std::to_string(job->streams.ge.size()));
            ++summary.jobs;
            values_pending = job->wantValues;
            if (values_pending)
                values = evalShardValues(*job);
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
            const ShardSimResult sim = runShardSimulation(
                job->program, job->config, job->streams, job->mode,
                env, job->exports);

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
