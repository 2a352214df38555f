/**
 * @file
 * Built-in backends and the backend registry.
 *
 * Lives in one translation unit with the registry storage so linking
 * any registry user also links the built-in registrations (no
 * link-order surprises from per-backend static initializers).
 */
#include "api/backend.h"

#include <chrono>
#include <map>
#include <stdexcept>

#include "api/session.h"
#include "chain/link.h"
#include "core/sim/engine.h"
#include "crypto/prg.h"
#include "gc/protocol.h"
#include "net/server.h"
#include "net/tcp.h"
#include "platform/energy_model.h"
#include "shard/backend.h"

namespace haac {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::map<std::string, BackendFactory> &
registry()
{
    static std::map<std::string, BackendFactory> backends;
    return backends;
}

} // namespace

RunReport
SoftwareGcBackend::execute(const Session &session)
{
    const Netlist &netlist = session.netlist();

    // Default zero inputs keep "just time/size the circuit" sessions
    // one-liners; mismatched non-empty inputs still throw below.
    std::vector<bool> gb = session.garblerBits();
    std::vector<bool> eb = session.evaluatorBits();
    if (gb.empty())
        gb.resize(netlist.numGarblerInputs, false);
    if (eb.empty())
        eb.resize(netlist.numEvaluatorInputs, false);

    RunReport report;
    const auto start = Clock::now();
    RemoteResult res = runProtocol(netlist, gb, eb, session.seed());
    report.hostSeconds = secondsSince(start);

    report.outputs = std::move(res.outputs);
    report.hasOutputs = true;
    report.comm.tableBytes = res.tableBytes;
    report.comm.inputLabelBytes = res.inputLabelBytes;
    report.comm.otBytes = res.otBytes;
    report.comm.otUplinkBytes = res.otUplinkBytes;
    report.comm.outputDecodeBytes = res.outputDecodeBytes;
    report.comm.totalBytes = res.totalBytes;
    report.hasComm = true;
    report.gates = netlist.numGates();
    report.config = session.config();
    report.mode = session.mode();
    return report;
}

RunReport
HaacSimBackend::execute(const Session &session)
{
    const HaacConfig cfg = session.config();
    const SimMode mode = mode_ ? *mode_ : session.mode();

    RunReport report;
    const auto start = Clock::now();

    const Session::Compiled compiled = session.compile();
    const HaacProgram &prog = compiled.program;
    report.compile = compiled.stats;
    const StreamSet streams = recordSchedule(prog, cfg);

    report.sim = runSimulation(prog, cfg, streams, mode);
    report.hostSeconds = secondsSince(start);
    report.hasSim = true;
    report.gates = report.compile.instructions;

    report.energy = modelEnergy(cfg, report.sim);
    report.hasEnergy = true;

    // The timing model computes no wire values; when the session
    // carries matching inputs (and wants outputs), interpret the
    // compiled program so the report still answers "what did the
    // circuit say". Zero-input (constant) circuits qualify too.
    if (session.wantOutputs() && session.inputsMatchCircuit()) {
        report.outputs = executePlain(prog, session.garblerBits(),
                                      session.evaluatorBits());
        report.hasOutputs = true;
    }

    report.config = cfg;
    report.mode = mode;
    return report;
}

namespace {

/**
 * "listen:port" / "listen:host:port" accepts one connection;
 * "host:port" connects (retrying until the peer starts listening).
 */
std::unique_ptr<Transport>
openEndpoint(const std::string &endpoint)
{
    if (endpoint.rfind("listen:", 0) == 0) {
        const auto [host, port] = splitEndpoint(endpoint.substr(7), "0.0.0.0");
        TcpListener listener(port, host);
        return listener.accept();
    }
    const auto [host, port] = splitEndpoint(endpoint, "127.0.0.1");
    return TcpTransport::connect(host, port);
}

} // namespace

RemoteGcBackend::RemoteGcBackend(std::shared_ptr<Transport> transport,
                                 Role role)
    : transport_(std::move(transport)), role_(role)
{
}

RunReport
RemoteGcBackend::execute(const Session &session)
{
    const Role role = role_ ? *role_ : session.remoteRole();

    std::unique_ptr<Transport> owned;
    Transport *transport = transport_.get();
    if (!transport) {
        if (session.remoteEndpoint().empty())
            throw std::invalid_argument(
                "remote-gc: no transport and no endpoint; configure "
                "Session::withRemote(role, endpoint)");
        owned = openEndpoint(session.remoteEndpoint());
        transport = owned.get();
    }

    clientHello(*transport,
                role == Role::Garbler ? PeerRole::Garbler
                                      : PeerRole::Evaluator,
                session.remoteSpec());

    RemoteOptions ropts;
    ropts.segmentTables = session.segmentTables();

    // A session carrying a chain plan runs the chained protocol
    // instead of garbling/evaluating its (monolithic) netlist.
    if (const chain::ChainPlan *plan = session.chainPlan()) {
        chain::ChainResult result;
        if (role == Role::Garbler) {
            std::vector<bool> bits = session.garblerBits();
            if (bits.empty())
                bits.resize(plan->garblerInputs, false);
            // Seed base 0 draws every component's seed from OS entropy.
            result = chain::runChainGarbler(
                *plan, bits, *transport,
                session.seedChosen() ? session.seed() : 0, ropts);
        } else {
            std::vector<bool> bits = session.evaluatorBits();
            if (bits.empty())
                bits.resize(plan->evaluatorInputs, false);
            result = chain::runChainEvaluator(*plan, bits, *transport,
                                              ropts);
        }
        RunReport report = makeChainReport(result, role, *transport);
        report.config = session.config();
        report.mode = session.mode();
        return report;
    }

    const Netlist &netlist = session.netlist();
    RemoteResult result;
    if (role == Role::Garbler) {
        std::vector<bool> bits = session.garblerBits();
        if (bits.empty())
            bits.resize(netlist.numGarblerInputs, false);
        result = runRemoteGarbler(
            netlist, bits, *transport,
            session.seedChosen() ? session.seed() : randomSeed(), ropts);
    } else {
        std::vector<bool> bits = session.evaluatorBits();
        if (bits.empty())
            bits.resize(netlist.numEvaluatorInputs, false);
        result = runRemoteEvaluator(netlist, bits, *transport, ropts);
    }

    RunReport report = makeRemoteReport(result, role, *transport);
    report.config = session.config();
    report.mode = session.mode();
    return report;
}

bool
registerBackend(const std::string &name, BackendFactory factory)
{
    if (!factory || registry().count(name))
        return false;
    registry()[name] = std::move(factory);
    return true;
}

std::unique_ptr<Backend>
createBackend(const std::string &name)
{
    auto it = registry().find(name);
    if (it == registry().end()) {
        std::string known;
        for (const auto &[n, f] : registry())
            known += (known.empty() ? "" : ", ") + n;
        throw std::invalid_argument("unknown backend \"" + name +
                                    "\" (registered: " + known + ")");
    }
    return it->second();
}

namespace {

const bool kBuiltinsRegistered = [] {
    registerBackend("software-gc", [] {
        return std::unique_ptr<Backend>(new SoftwareGcBackend());
    });
    registerBackend("haac-sim", [] {
        return std::unique_ptr<Backend>(new HaacSimBackend());
    });
    registerBackend("remote-gc", [] {
        return std::unique_ptr<Backend>(new RemoteGcBackend());
    });
    registerBackend("haac-sim-sharded", [] {
        return std::unique_ptr<Backend>(new ShardedSimBackend());
    });
    return true;
}();

} // namespace

} // namespace haac
