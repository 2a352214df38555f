/**
 * @file
 * Extension (§6.5 future work): multiple HAAC cores. The paper
 * suggests "higher levels of parallelism (e.g., multiple HAAC cores)"
 * to close the remaining gap to plaintext. Two views of the same
 * question:
 *
 *  - *Model* (default): N cores sharing one memory package, each core
 *    running an independent instance of the workload (the PI serving
 *    scenario) with 1/N of the package bandwidth. The split is applied
 *    analytically — per-core time ~ max(compute, N x traffic) — so all
 *    core counts share one compile and two simulations.
 *
 *  - *Measured* (--measured): the same workloads through the
 *    "haac-sim-sharded" backend over in-process loopback workers. One
 *    circuit is compiled for M x 16 GEs, partitioned into M 16-GE
 *    shard cores sharing the package (1/M bandwidth each), and
 *    co-simulated until the cross-shard schedule converges. Unlike the
 *    model, the measured run pays cross-core wire dependencies, so the
 *    side-by-side answers where — and why — cores stop scaling.
 */
#include <cstdio>
#include <cstring>
#include <iostream>

#include "harness.h"

using namespace haac;
using namespace haac::bench;

namespace {

/**
 * One compiled instance per (workload, DRAM): the bandwidth split is
 * applied analytically, so all core counts share a single compile +
 * two simulations.
 */
struct CoreModel
{
    HaacConfig cfg;
    SimStats comb;
    SimStats comp;
    double trafficCycles = 0;
};

CoreModel
modelCore(const Workload &wl, DramKind dram)
{
    CoreModel m;
    m.cfg.dram = dram;
    // Model the bandwidth split by scaling the DRAM latency budget:
    // we emulate 1/N bandwidth by giving each core an N-times longer
    // effective byte time. dramBytesPerCycle is fixed per kind, so
    // instead scale the workload's traffic clock: run with full BW and
    // multiply the traffic-limited portion by N analytically.
    CompileOptions opts;
    opts.reorder = ReorderKind::Full;
    // Both SimModes replay the same compiled program and streams;
    // compile once through the facade and drive the simulator for the
    // two modes directly instead of paying two full pipelines.
    Session::Compiled compiled = Session(wl)
                                     .withConfig(m.cfg)
                                     .withCompileOptions(opts)
                                     .compile();
    StreamSet set = recordSchedule(compiled.program, m.cfg);
    m.comb = runSimulation(compiled.program, m.cfg, set,
                           SimMode::Combined);
    m.comp = runSimulation(compiled.program, m.cfg, set,
                           SimMode::ComputeOnly);
    m.trafficCycles =
        double(m.comb.totalTrafficBytes()) / dramBytesPerCycle(dram);
    return m;
}

/** Decoupled model: per-core time ~ max(compute, N x traffic). */
SimStats
statsAtCores(const CoreModel &m, uint32_t cores)
{
    SimStats out = m.comb;
    out.cycles = uint64_t(std::max(double(m.comp.cycles),
                                   double(cores) * m.trafficCycles));
    return out;
}

/** Model aggregate throughput gain at N cores (N instances). */
double
modelAggregate(const CoreModel &m, uint32_t cores)
{
    const double t1 = statsAtCores(m, 1).seconds();
    const double tn = statsAtCores(m, cores).seconds();
    return tn > 0 ? double(cores) * t1 / tn : 0;
}

void
runModelMode(const Options &opts, RunLog &log)
{
    Report table({"Benchmark", "DRAM", "1 core", "2 cores", "4 cores",
                  "8 cores", "agg. 8-core xput"},
                 opts.format);

    for (const char *name : {"MatMult", "ReLU", "BubbSt"}) {
        if (!opts.only.empty() && opts.only != name)
            continue;
        Workload wl = vipWorkload(name, opts.paperScale);
        for (DramKind dram : {DramKind::Ddr4, DramKind::Hbm2}) {
            std::vector<std::string> row = {
                name, dram == DramKind::Ddr4 ? "DDR4" : "HBM2"};
            const CoreModel model = modelCore(wl, dram);
            double t1 = 0, t8 = 0;
            for (uint32_t cores : {1u, 2u, 4u, 8u}) {
                SimStats s = statsAtCores(model, cores);
                RunReport rec;
                rec.backend = "haac-sim";
                rec.workload = wl.name;
                rec.label = std::string("cores=") +
                            std::to_string(cores) + "/" +
                            (dram == DramKind::Ddr4 ? "ddr4" : "hbm2");
                rec.config = model.cfg;
                rec.sim = s;
                rec.hasSim = true;
                log.add(rec);
                if (cores == 1)
                    t1 = s.seconds();
                if (cores == 8)
                    t8 = s.seconds();
                row.push_back(fmtSeconds(s.seconds()));
            }
            // Aggregate throughput gain of 8 cores vs 1 core.
            row.push_back(fmt(8.0 * t1 / t8, 2) + "x");
            table.addRow(row);
        }
    }
    table.print(std::cout);
    std::printf("\nReading: aggregate throughput saturates once "
                "N x traffic exceeds compute time — DDR4 cores stop "
                "paying off quickly, HBM2 sustains more cores, "
                "matching the paper's motivation for PIM/multi-core "
                "as future work.\n");
}

void
runMeasuredMode(const Options &opts, RunLog &log)
{
    Report table({"Benchmark", "DRAM", "M", "model agg. xput",
                  "measured agg. xput", "rounds", "cross wires"},
                 opts.format);

    for (const char *name : {"MatMult", "ReLU", "BubbSt"}) {
        if (!opts.only.empty() && opts.only != name)
            continue;
        Workload wl = vipWorkload(name, opts.paperScale);
        for (DramKind dram : {DramKind::Ddr4, DramKind::Hbm2}) {
            const CoreModel model = modelCore(wl, dram);
            double t1 = 0; // measured single-core baseline
            for (uint32_t cores : {1u, 2u, 4u, 8u}) {
                // M shard cores of 16 GEs each, one shared package:
                // compile/schedule the circuit for the whole fleet,
                // then split it across M loopback workers.
                HaacConfig cfg;
                cfg.dram = dram;
                cfg.numGes = 16 * cores;
                // Scale the per-core resources with the fleet so each
                // 16-GE shard core ends up with the paper's 64 KB of
                // queue SRAM and 16 KB write buffer after the
                // coordinator's proportional split.
                cfg.queueSramBytes = size_t(64) * 1024 * cores;
                cfg.writeBufferBytes = size_t(16) * 1024 * cores;
                CompileOptions copts;
                copts.reorder = ReorderKind::Full;
                Session session(wl);
                session.withConfig(cfg)
                    .withCompileOptions(copts)
                    .withShards(cores)
                    .withOutputs(false);
                RunReport rec = session.run("haac-sim-sharded");
                rec.label = std::string("measured-cores=") +
                            std::to_string(cores) + "/" +
                            (dram == DramKind::Ddr4 ? "ddr4" : "hbm2");
                log.add(rec);

                const double tm = rec.sim.seconds();
                if (cores == 1)
                    t1 = tm;
                // One circuit finished across M cores: aggregate
                // throughput gain = t1 / tM.
                const double measured = tm > 0 ? t1 / tm : 0;
                table.addRow(
                    {name, dram == DramKind::Ddr4 ? "DDR4" : "HBM2",
                     std::to_string(cores),
                     fmt(modelAggregate(model, cores), 2) + "x",
                     fmt(measured, 2) + "x",
                     std::to_string(rec.shard.rounds) +
                         (rec.shard.converged ? "" : "*"),
                     std::to_string(rec.shard.crossWires)});
            }
        }
    }
    table.print(std::cout);
    std::printf(
        "\nReading: the model runs N independent instances (no "
        "cross-core wires), the measured column runs ONE circuit "
        "across M 16-GE shard cores sharing the package — its gap "
        "below the model is the price of cross-shard wire "
        "dependencies and the live wires sharding forces off-chip. "
        "A '*' on rounds means the cross-shard schedule was still "
        "moving at the iteration cap.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // --measured is specific to this binary; strip it before the
    // shared parser sees it.
    bool measured = false;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--measured") == 0)
            measured = true;
        else
            args.push_back(argv[i]);
    }
    Options opts = parseArgs(int(args.size()), args.data(),
                             "Extension: multi-core HAAC "
                             "(--measured: run the haac-sim-sharded "
                             "backend instead of the analytic model)");
    RunLog log(opts, "ablation_multicore");

    std::printf("== Extension: N HAAC cores sharing one memory package "
                "(%s; full reorder; %s scale) ==\n\n",
                measured ? "measured via haac-sim-sharded loopback "
                           "workers"
                         : "independent instances, analytic split",
                opts.paperScale ? "paper" : "default");

    if (measured)
        runMeasuredMode(opts, log);
    else
        runModelMode(opts, log);
    return 0;
}
