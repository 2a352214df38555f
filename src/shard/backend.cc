#include "shard/backend.h"

#include <chrono>

#include "api/session.h"
#include "core/compiler/passes.h"

namespace haac {

RunReport
ShardedSimBackend::execute(const Session &session)
{
    const HaacConfig cfg = session.config();

    shard::ShardOptions opts;
    opts.shards = session.shards();
    opts.workers = session.shardWorkers();

    // The config is the authority on SWW capacity, as in HaacSimBackend.
    CompileOptions copts = session.compileOptions();
    copts.swwWires = cfg.swwWires();

    RunReport report;
    const auto start = std::chrono::steady_clock::now();
    HaacProgram prog = compileProgram(assemble(session.netlist()),
                                      copts, &report.compile);

    const bool want_values =
        session.wantOutputs() && session.inputsMatchCircuit();
    shard::ShardRunResult res = shard::runSharded(
        std::move(prog), cfg, session.mode(), opts,
        session.garblerBits(), session.evaluatorBits(), want_values);
    report.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    report.sim = res.stats;
    report.hasSim = true;
    report.gates = report.compile.instructions;
    report.energy = res.energy;
    report.hasEnergy = true;
    if (res.hasOutputs) {
        report.outputs = std::move(res.outputs);
        report.hasOutputs = true;
    }

    report.shard.shards = res.shards;
    report.shard.requested = res.requested;
    report.shard.rounds = res.rounds;
    report.shard.converged = res.converged;
    report.shard.crossWires = res.crossWires;
    report.shard.liveFlipped = res.liveFlipped;
    report.shard.shardCycles = std::move(res.shardCycles);
    report.shard.shardInstructions = std::move(res.shardInstructions);
    report.hasShard = true;

    report.config = cfg;
    report.mode = session.mode();
    return report;
}

} // namespace haac
