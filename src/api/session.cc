#include "api/session.h"

#include <stdexcept>
#include <utility>

#include "chain/link.h"
#include "circuit/analyze.h"
#include "workloads/vip.h"

namespace haac {

Session::Session(Netlist netlist, std::string name)
    : netlist_(std::move(netlist)), name_(std::move(name))
{
}

Session::Session(const Workload &workload)
    : netlist_(workload.netlist), name_(workload.name),
      garblerBits_(workload.garblerBits),
      evaluatorBits_(workload.evaluatorBits)
{
}

Session &
Session::withInputs(std::vector<bool> garbler_bits,
                    std::vector<bool> evaluator_bits)
{
    garblerBits_ = std::move(garbler_bits);
    evaluatorBits_ = std::move(evaluator_bits);
    return *this;
}

Session &
Session::withSeed(uint64_t seed)
{
    seed_ = seed;
    seedChosen_ = true;
    return *this;
}

Session &
Session::withCompileOptions(const CompileOptions &opts)
{
    copts_ = opts;
    return *this;
}

Session &
Session::withConfig(const HaacConfig &config)
{
    config_ = config;
    return *this;
}

Session &
Session::withMode(SimMode mode)
{
    mode_ = mode;
    return *this;
}

Session &
Session::withLabel(std::string label)
{
    label_ = std::move(label);
    return *this;
}

Session &
Session::withRemote(Role role, std::string endpoint, std::string spec)
{
    remoteRole_ = role;
    remoteEndpoint_ = std::move(endpoint);
    remoteSpec_ = std::move(spec);
    return *this;
}

Session &
Session::withSegmentTables(uint32_t tables)
{
    segmentTables_ = tables > 0 ? tables : 1;
    return *this;
}

Session &
Session::withShards(uint32_t shards,
                    std::vector<std::string> worker_endpoints)
{
    shards_ = shards > 0 ? shards : 1;
    shardWorkers_ = std::move(worker_endpoints);
    return *this;
}

Session &
Session::withOutputs(bool want)
{
    wantOutputs_ = want;
    return *this;
}

Session &
Session::withChainPlan(const chain::ChainPlan &plan)
{
    const std::string err = plan.check();
    if (!err.empty())
        throw std::invalid_argument("chain plan \"" + plan.name +
                                    "\": " + err);
    chainPlan_ = std::make_shared<const chain::ChainPlan>(plan);
    netlist_ = plan.monolithic();
    if (!plan.name.empty())
        name_ = plan.name;
    return *this;
}

bool
Session::inputsMatchCircuit() const
{
    return garblerBits_.size() == netlist_.numGarblerInputs &&
           evaluatorBits_.size() == netlist_.numEvaluatorInputs;
}

HaacProgram
Session::assembled() const
{
    return assemble(netlist_);
}

Session::Compiled
Session::compile() const
{
    CompileOptions opts = copts_;
    opts.swwWires = config_.swwWires();

    // Pre-compile admission: the circuit-level analogue of the
    // post-compile ISA verify in compileProgram, same Debug/Release
    // contract. All analyzer error codes are structural, so the deep
    // (warning) passes are skipped here.
#ifndef NDEBUG
    const bool check = true;
#else
    const bool check = opts.verify;
#endif
    if (check) {
        CircuitLintOptions lint;
        lint.warnings = false;
        lint.deep = false;
        const CircuitLintReport rep = analyzeNetlist(netlist_, lint);
        // No assert here, unlike the mirrored check in passes.cc: that
        // one guards compiler output, this one guards user-supplied
        // netlists (e.g. readBristolFile), which must refuse by
        // throwing, not abort, in every build mode.
        if (!rep.clean())
            throw std::logic_error(
                "Session::compile: circuit analyzer rejected the "
                "netlist (" +
                rep.summary() + "): " + rep.firstError());
    }

    Compiled out;
    out.program = compileProgram(assemble(netlist_), opts, &out.stats);
    return out;
}

RunReport
Session::run(Backend &backend) const
{
    RunReport report = backend.execute(*this);
    report.backend = backend.name();
    report.workload = name_;
    report.label = label_;
    return report;
}

RunReport
Session::run(const std::string &backend_name) const
{
    std::unique_ptr<Backend> backend = createBackend(backend_name);
    return run(*backend);
}

RunReport
Session::runSoftwareGc() const
{
    SoftwareGcBackend backend;
    return run(backend);
}

RunReport
Session::runHaacSim() const
{
    HaacSimBackend backend;
    return run(backend);
}

RunReport
Session::runHaacSim(SimMode mode) const
{
    HaacSimBackend backend(mode);
    return run(backend);
}

} // namespace haac
