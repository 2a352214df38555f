/**
 * @file
 * Yao's millionaires' problem as a genuine two-process protocol.
 *
 * Each process holds ONE party's wealth and plays one GC role over
 * TCP — the deployment shape the paper's "EMP on the CPU" baseline
 * measures. Terminal 1 listens, terminal 2 connects (either order;
 * connect retries):
 *
 *   ./remote_millionaires --role garbler   --listen 9000 --wealth 1000000
 *   ./remote_millionaires --role evaluator --connect 127.0.0.1:9000 \
 *                         --wealth 1250000
 *
 * Both processes print the comparison bit — and nothing else about
 * the peer's number. `--loopback` runs both parties in one process
 * over an in-memory transport and cross-checks the result against
 * the in-process "software-gc" backend, byte accounting included;
 * ctest runs that as the smoke test.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "api/session.h"
#include "circuit/builder.h"
#include "circuit/stdlib.h"
#include "net/loopback.h"

using namespace haac;

namespace {

Netlist
millionairesCircuit(uint32_t bits)
{
    CircuitBuilder cb;
    Bits a = cb.garblerInputs(bits);   // garbler's wealth
    Bits b = cb.evaluatorInputs(bits); // evaluator's wealth
    cb.addOutput(ltUnsigned(cb, b, a)); // 1 iff garbler is richer
    return cb.build();
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --role garbler|evaluator "
        "(--listen [host:]port | --connect host:port) "
        "[--wealth N] [--bits N] [--segment N] [--spec S] [--json]\n"
        "       %s --loopback [--bits N] [--segment N]\n",
        argv0, argv0);
}

int
runLoopback(uint32_t bits, uint32_t segment)
{
    const uint64_t alice = 1'000'000, bob = 1'250'000;
    Netlist netlist = millionairesCircuit(bits);

    auto [garbler_end, evaluator_end] = LoopbackTransport::createPair();

    Session garbler(netlist, "remote-millionaires");
    garbler.withInputs(u64ToBits(alice, bits), {})
        .withSegmentTables(segment);
    Session evaluator(netlist, "remote-millionaires");
    evaluator.withInputs({}, u64ToBits(bob, bits))
        .withSegmentTables(segment);

    RunReport greport, ereport;
    std::thread garbler_thread([&, g = std::move(garbler_end)]() mutable {
        RemoteGcBackend backend(std::move(g), Role::Garbler);
        greport = garbler.run(backend);
    });
    RemoteGcBackend backend(std::move(evaluator_end), Role::Evaluator);
    ereport = evaluator.run(backend);
    garbler_thread.join();

    // The whole point: the networked run must be bit- and
    // byte-identical to the in-process protocol.
    RunReport reference = Session(netlist, "millionaires")
                              .withInputs(u64ToBits(alice, bits),
                                          u64ToBits(bob, bits))
                              .run("software-gc");
    if (greport.outputs != reference.outputs ||
        ereport.outputs != reference.outputs) {
        std::fprintf(stderr, "MISMATCH: remote outputs disagree with "
                             "software-gc\n");
        return 1;
    }
    if (greport.comm.totalBytes != reference.comm.totalBytes) {
        std::fprintf(stderr,
                     "MISMATCH: wire payload %llu != in-process %llu\n",
                     (unsigned long long)greport.comm.totalBytes,
                     (unsigned long long)reference.comm.totalBytes);
        return 1;
    }
    std::printf("loopback ok: result %d (alice richer? %s), %llu "
                "payload bytes across %llu segments, matches "
                "software-gc exactly\n",
                int(ereport.outputs[0]),
                ereport.outputs[0] ? "yes" : "no",
                (unsigned long long)ereport.comm.totalBytes,
                (unsigned long long)ereport.net.tableSegments);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string role_str, endpoint, spec;
    uint64_t wealth = 1'000'000;
    uint32_t bits = 32;
    uint32_t segment = 1024;
    bool loopback = false, json = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--role")
            role_str = value();
        else if (arg == "--listen")
            endpoint = std::string("listen:") + value();
        else if (arg == "--connect")
            endpoint = value();
        else if (arg == "--wealth")
            wealth = std::strtoull(value(), nullptr, 0);
        else if (arg == "--bits")
            bits = uint32_t(std::strtoul(value(), nullptr, 10));
        else if (arg == "--segment")
            segment = uint32_t(std::strtoul(value(), nullptr, 10));
        else if (arg == "--spec")
            spec = value();
        else if (arg == "--loopback")
            loopback = true;
        else if (arg == "--json")
            json = true;
        else {
            usage(argv[0]);
            return 2;
        }
    }
    if (bits == 0 || bits > 64) {
        std::fprintf(stderr, "--bits must be in [1, 64]\n");
        return 2;
    }

    if (loopback)
        return runLoopback(bits, segment);

    if ((role_str != "garbler" && role_str != "evaluator") ||
        endpoint.empty()) {
        usage(argv[0]);
        return 2;
    }
    const Role role =
        role_str == "garbler" ? Role::Garbler : Role::Evaluator;

    Session session(millionairesCircuit(bits), "remote-millionaires");
    if (role == Role::Garbler)
        session.withInputs(u64ToBits(wealth, bits), {});
    else
        session.withInputs({}, u64ToBits(wealth, bits));
    // Against a haac_server, name the matching workload so the server
    // builds the same circuit ("Million:<bits>"); peers ignore it.
    if (spec.empty())
        spec = "Million:" + std::to_string(bits);
    session.withRemote(role, endpoint, spec).withSegmentTables(segment);

    try {
        RunReport report = session.run("remote-gc");
        std::printf("[%s @ %s] result: the garbler %s richer\n",
                    role_str.c_str(), report.net.endpoint.c_str(),
                    report.outputs[0] ? "is" : "is not");
        std::printf("  %llu payload bytes (%llu tables, %llu OT), "
                    "%llu segments, %.0f gates/s\n",
                    (unsigned long long)report.comm.totalBytes,
                    (unsigned long long)report.comm.tableBytes,
                    (unsigned long long)report.comm.otBytes,
                    (unsigned long long)report.net.tableSegments,
                    report.gatesPerSecond());
        if (json)
            std::printf("%s\n", report.toJson().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "remote_millionaires: %s\n", e.what());
        return 1;
    }
}
