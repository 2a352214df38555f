/**
 * @file
 * haac::Session — the one entry point for running a garbled circuit.
 *
 * The paper's core claim is one program, two executions: the same
 * circuit runs on the EMP-class software baseline and on the HAAC
 * accelerator model, and every figure compares the two. A Session owns
 * the circuit, both parties' inputs, the compile options, and the
 * accelerator configuration; backends (api/backend.h) supply the
 * execution semantics and all return the same structured RunReport:
 *
 *     Session s(vipWorkload("Hamm", false));
 *     RunReport cpu = s.runSoftwareGc();   // real 2PC protocol
 *     RunReport sim = s.runHaacSim();      // cycle-level HAAC model
 *
 * Setters are fluent and the Session is reusable: sweep configurations
 * by mutating and re-running, as the bench binaries do.
 */
#ifndef HAAC_API_SESSION_H
#define HAAC_API_SESSION_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/backend.h"
#include "api/run_report.h"
#include "circuit/netlist.h"
#include "core/compiler/passes.h"
#include "core/isa/program.h"
#include "core/sim/config.h"
#include "core/sim/engine.h"

namespace haac {

struct Workload;

namespace chain {
struct ChainPlan;
}

class Session
{
  public:
    /** A session over a bare circuit (no inputs yet). */
    explicit Session(Netlist netlist, std::string name = "");

    /**
     * A session over a workload bundle: adopts its netlist, name, and
     * both parties' sample inputs.
     */
    explicit Session(const Workload &workload);

    /** @name Fluent configuration */
    /// @{
    Session &withInputs(std::vector<bool> garbler_bits,
                        std::vector<bool> evaluator_bits);
    /**
     * Garbling seed for the local backends (default 0x4841414331) and
     * for a remote-gc garbler. A remote-gc garbler that was given no
     * seed draws one from OS entropy per run (randomSeed()), because
     * any evaluator can expand a public seed's labels.
     */
    Session &withSeed(uint64_t seed);
    Session &withCompileOptions(const CompileOptions &opts);
    Session &withConfig(const HaacConfig &config);
    Session &withMode(SimMode mode);
    /** Caller tag copied into every RunReport (sweep labels). */
    Session &withLabel(std::string label);
    /**
     * Networked execution (the "remote-gc" backend): which GC role
     * this process plays and where the peer is. @p endpoint is
     * "host:port" to connect or "listen:port" / "listen:host:port"
     * to accept one connection. @p spec is sent when the peer turns
     * out to be a haac_server ("Million:32", "Hamm", ...); peers
     * with their own circuit ignore it.
     */
    Session &withRemote(Role role, std::string endpoint,
                        std::string spec = "");
    /** Garbled tables per streamed segment frame (remote backends). */
    Session &withSegmentTables(uint32_t tables);
    /**
     * Sharded simulation (the "haac-sim-sharded" backend): split the
     * compiled program's GE streams across @p shards workers. With no
     * @p worker_endpoints the workers are in-process loopback threads;
     * otherwise shard s connects to endpoint s mod N ("host:port" of a
     * `haac_server --shard-worker`).
     */
    Session &withShards(uint32_t shards,
                        std::vector<std::string> worker_endpoints = {});
    /**
     * Whether simulation backends should also interpret the compiled
     * program to produce circuit outputs (default true). Benchmarks
     * that only read timing turn this off to skip the plaintext pass.
     */
    Session &withOutputs(bool want);
    /**
     * Chained execution (src/chain): adopt a component-chaining plan.
     * The session's netlist becomes the plan's monolithic()
     * equivalent, so the local backends (software-gc, haac-sim) run
     * exactly the circuit a chained execution must match bit for bit,
     * while the remote-gc backend switches to the chained protocol:
     * the garbler links components garbled fresh from the session
     * seed (OS entropy per component when withSeed() chose none), the
     * evaluator follows the link-table stream. Throws
     * std::invalid_argument when the plan fails its own check().
     */
    Session &withChainPlan(const chain::ChainPlan &plan);
    /// @}

    /** @name Accessors (used by backends) */
    /// @{
    const Netlist &netlist() const { return netlist_; }
    const std::string &name() const { return name_; }
    const std::string &label() const { return label_; }
    const std::vector<bool> &garblerBits() const { return garblerBits_; }
    const std::vector<bool> &evaluatorBits() const
    {
        return evaluatorBits_;
    }
    uint64_t seed() const { return seed_; }
    /** Whether withSeed() chose the seed. */
    bool seedChosen() const { return seedChosen_; }
    const HaacConfig &config() const { return config_; }
    SimMode mode() const { return mode_; }
    bool wantOutputs() const { return wantOutputs_; }
    Role remoteRole() const { return remoteRole_; }
    const std::string &remoteEndpoint() const { return remoteEndpoint_; }
    const std::string &remoteSpec() const { return remoteSpec_; }
    uint32_t segmentTables() const { return segmentTables_; }
    uint32_t shards() const { return shards_; }
    const std::vector<std::string> &shardWorkers() const
    {
        return shardWorkers_;
    }
    /** The adopted chain plan, or null for ordinary sessions. */
    const chain::ChainPlan *chainPlan() const { return chainPlan_.get(); }

    /** Do the stored inputs match the circuit's input shape? */
    bool inputsMatchCircuit() const;
    /// @}

    /** @name Compile-only view (no simulation) */
    /// @{
    /** The baseline (un-reordered) HAAC program for this circuit. */
    HaacProgram assembled() const;

    struct Compiled
    {
        HaacProgram program;
        CompileStats stats;
    };

    /**
     * Assemble and run the compiler pipeline under the session's
     * options, with swwWires taken from the session's HaacConfig.
     * Debug builds, and Release with CompileOptions::verify, first run
     * the circuit analyzer and throw std::logic_error on a refusal.
     * The simulation backends compile through here.
     */
    Compiled compile() const;
    /// @}

    /** @name Execution */
    /// @{
    /** Run on an explicit backend instance. */
    RunReport run(Backend &backend) const;

    /** Run on a registry backend by name ("software-gc", "haac-sim"). */
    RunReport run(const std::string &backend_name) const;

    /** Convenience: the software two-party protocol baseline. */
    RunReport runSoftwareGc() const;

    /** Convenience: the HAAC model in the session's SimMode. */
    RunReport runHaacSim() const;

    /** Convenience: the HAAC model in an explicit SimMode. */
    RunReport runHaacSim(SimMode mode) const;
    /// @}

  private:
    Netlist netlist_;
    std::string name_;
    std::string label_;
    std::vector<bool> garblerBits_;
    std::vector<bool> evaluatorBits_;
    uint64_t seed_ = 0x4841414331ull; // matches runProtocol's default
    bool seedChosen_ = false;
    CompileOptions copts_;
    HaacConfig config_;
    SimMode mode_ = SimMode::Combined;
    bool wantOutputs_ = true;
    Role remoteRole_ = Role::Evaluator;
    std::string remoteEndpoint_;
    std::string remoteSpec_;
    uint32_t segmentTables_ = 1024;
    uint32_t shards_ = 1;
    std::vector<std::string> shardWorkers_;
    std::shared_ptr<const chain::ChainPlan> chainPlan_;
};

} // namespace haac

#endif // HAAC_API_SESSION_H
