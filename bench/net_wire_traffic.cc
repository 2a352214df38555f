/**
 * @file
 * Wire-traffic cross-check: the Table 3 class of accounting, verified
 * against actual bytes on a transport.
 *
 * The software-gc backend reports communication by category (tables,
 * input labels, OT, output decode) from runProtocol's in-process
 * session; the remote-gc backend moves those bytes across a framed
 * transport.
 * For every VIP workload this bench runs both — the remote pair over
 * a LoopbackTransport in two threads — and cross-checks each category
 * exactly, then reports what the accounting cannot see: framing
 * overhead, control traffic (fingerprint, choice bits, result echo),
 * and the segment count of the streamed table transfer. Any per-
 * category disagreement prints as a MISMATCH and fails the run.
 */
#include <cstdio>
#include <iostream>
#include <thread>

#include "harness.h"
#include "net/loopback.h"

using namespace haac;
using namespace haac::bench;

int
main(int argc, char **argv)
{
    Options opts =
        parseArgs(argc, argv, "Wire traffic: accounting vs transport");

    std::printf("== Wire traffic: software-gc accounting vs bytes on "
                "the transport (%s scale, real IKNP OT) ==\n\n",
                opts.paperScale ? "paper" : "default");

    Report table({"Benchmark", "Tables", "Labels", "OT", "OtUp",
                  "Decode", "Payload", "Control", "Framed", "Overhead",
                  "Segs", "Match"},
                 opts.format);
    RunLog log(opts, "net_wire_traffic");
    int mismatches = 0;

    for (const std::string &name : vipNames()) {
        if (!opts.only.empty() && opts.only != name)
            continue;
        const Workload wl = vipWorkload(name, opts.paperScale);

        Session session(wl);
        RunReport accounted = session.run("software-gc");

        auto [gend, eend] = LoopbackTransport::createPair();
        Session gsession(wl);
        RunReport gremote;
        std::thread garbler([&, gt = std::move(gend)]() mutable {
            RemoteGcBackend backend(std::move(gt), Role::Garbler);
            gremote = gsession.run(backend);
        });
        RemoteGcBackend backend(std::move(eend), Role::Evaluator);
        RunReport eremote = session.run(backend);
        garbler.join();
        log.add(eremote, "remote-loopback");

        const RunReport::Communication &a = accounted.comm;
        const RunReport::Communication &w = eremote.comm;
        const bool match = a.tableBytes == w.tableBytes &&
                           a.inputLabelBytes == w.inputLabelBytes &&
                           a.otBytes == w.otBytes &&
                           a.otUplinkBytes == w.otUplinkBytes &&
                           a.outputDecodeBytes == w.outputDecodeBytes &&
                           a.totalBytes == w.totalBytes &&
                           accounted.outputs == eremote.outputs &&
                           accounted.outputs == gremote.outputs;
        if (!match) {
            ++mismatches;
            std::fprintf(stderr,
                         "MISMATCH %s: accounted %llu wire %llu\n",
                         name.c_str(),
                         (unsigned long long)a.totalBytes,
                         (unsigned long long)w.totalBytes);
        }

        const uint64_t framed = eremote.net.rawBytesReceived +
                                eremote.net.rawBytesSent;
        const uint64_t payload_both = w.totalBytes + w.otUplinkBytes +
                                      eremote.net.controlBytes;
        const double overhead =
            payload_both > 0
                ? 100.0 * double(framed - payload_both) /
                      double(payload_both)
                : 0.0;
        table.addRow({name, fmtBytes(w.tableBytes),
                      fmtBytes(w.inputLabelBytes), fmtBytes(w.otBytes),
                      fmtBytes(w.otUplinkBytes),
                      fmtBytes(w.outputDecodeBytes),
                      fmtBytes(w.totalBytes),
                      fmtBytes(eremote.net.controlBytes),
                      fmtBytes(framed), fmt(overhead, 3) + "%",
                      std::to_string(eremote.net.tableSegments),
                      match ? "exact" : "MISMATCH"});
    }
    table.print(std::cout);
    std::printf("\nEvery category (tables, input labels, OT down- and "
                "uplink, output decode) must match the software-gc "
                "backend's accounting exactly; OT here is the "
                "real base-OT + IKNP extension (OT = 4 KB of base "
                "points + 32 B per evaluator bit down, OtUp = 32 B "
                "key + 2 KB of masked columns per 128-bit block "
                "including the KOS15 pad block + a 32 B consistency "
                "proof per batch up); "
                "framing adds 4 B per segment frame plus the 8 B "
                "hello per direction.\n");
    return mismatches == 0 ? 0 : 1;
}
