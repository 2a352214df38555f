/**
 * @file
 * Per-layer probes for the traced run: each one times direct calls
 * into one module's public functions (and records them as spans), so
 * a layer's cost is visible apart from the end-to-end session it
 * belongs to.
 */
#include "layers.h"

#include <algorithm>
#include <thread>

#include "api/session.h"
#include "chain/workloads.h"
#include "circuit/analyze.h"
#include "circuit/bristol.h"
#include "core/compiler/passes.h"
#include "core/sim/engine.h"
#include "crypto/aes128.h"
#include "crypto/curve25519.h"
#include "gc/instance.h"
#include "gc/ot_ext.h"
#include "gc/streaming.h"
#include "net/loopback.h"
#include "net/tcp.h"
#include "serve/component_pool.h"
#include "workloads/vip.h"

namespace hb {

using namespace haac;

namespace {

/**
 * Median milliseconds of @p body over at least @p min_reps calls and
 * until @p min_ms of total time, so microsecond-scale calls are
 * repeated enough to read steadily.
 */
template <class F>
double
medianMs(const char *span, int min_reps, double min_ms, F body)
{
    std::vector<double> times;
    double total = 0;
    while (int(times.size()) < min_reps || total < min_ms) {
        ScopedSpan s(span);
        const auto start = Clock::now();
        body();
        times.push_back(msSince(start));
        total += times.back();
    }
    return median(times);
}

// A sink the optimizer cannot drop.
volatile uint64_t gSink = 0;

void
probeCrypto(Result &r, double &aes_ns)
{
    constexpr int kBlocks = 1 << 14;
    const Aes128 aes(Label(0x0123456789abcdefull, 0x0fedcba987654321ull));
    aes_ns = medianMs("crypto.aes_blocks", 7, 50, [&] {
                 Label acc;
                 for (int i = 0; i < kBlocks; ++i)
                     acc ^= aes.encryptBlock(Label(uint64_t(i), acc.hi));
                 gSink = gSink + acc.lo;
             }) *
             1e6 / kBlocks;
    r.add("crypto.aes_ns_per_block", aes_ns, "ns");

    constexpr int kKeys = 1 << 12;
    const double expand_ns =
        medianMs("crypto.aes_key_expand", 7, 50, [&] {
            uint64_t acc = 0;
            for (int i = 0; i < kKeys; ++i)
                acc += Aes128(Label(uint64_t(i), acc)).roundKeys()[175];
            gSink = gSink + acc;
        }) *
        1e6 / kKeys;
    r.add("crypto.aes_key_expand_ns", expand_ns, "ns");

    constexpr int kMuls = 16;
    Prg rng(7);
    const double mul_us = medianMs("crypto.curve_mul", 3, 50, [&] {
                              uint8_t out[ec::kPointBytes];
                              for (int i = 0; i < kMuls; ++i) {
                                  const ec::Point p = ec::Point::mul(
                                      ec::randomScalar(rng),
                                      ec::Point::base());
                                  p.toBytes(out);
                                  gSink = gSink + out[0];
                              }
                          }) *
                          1e3 / kMuls;
    r.add("crypto.curve_mul_us", mul_us, "us");
}

void
probeGc(const ProbeInputs &in, double aes_ns, Result &r)
{
    const Netlist &nl = in.gcNetlist;
    const double ands = std::max(1u, nl.numAndGates());

    uint64_t seed = 1;
    const double garble_ms = medianMs("gc.garble", 5, 100, [&] {
        StreamingGarbler g(nl, seed++);
        uint64_t tables = 0;
        g.run([&](const GarbledTable &) { ++tables; });
        gSink = gSink + tables;
    });
    const double garble_ns = garble_ms * 1e6 / ands;
    r.add("gc.garble_ns_per_and", garble_ns, "ns");
    r.add("gc.garble_aes_ratio", garble_ns / aes_ns, "ratio");

    GarbledInstance inst;
    const double capture_ms = medianMs("gc.capture", 5, 100, [&] {
        inst = captureGarbling(nl, seed++);
    });
    std::vector<Label> labels(nl.numInputs());
    for (WireId w = 0; w < nl.numInputs(); ++w)
        labels[w] = inst.activeLabel(w, w == nl.constOne);
    const double eval_ms = medianMs("gc.evaluate", 5, 100, [&] {
        size_t next = 0;
        const std::vector<Label> out = evaluateStreaming(
            nl, labels, [&] { return inst.tables[next++]; });
        gSink = gSink + out.size();
    });
    r.add("gc.eval_ns_per_and", eval_ms * 1e6 / ands, "ns");
    r.add("gc.capture_ms", capture_ms, "ms");

    // Both OT endpoints on one thread over in-process FIFOs, in the
    // half-step order gc/ot_ext.h documents.
    Channel to_sender, to_receiver;
    std::unique_ptr<OtExtReceiver> rx;
    std::unique_ptr<OtExtSender> tx;
    const double base_ms = medianMs("gc.base_ot", 3, 0, [&] {
        rx = std::make_unique<OtExtReceiver>(to_sender, to_receiver,
                                             otRandomKey());
        tx = std::make_unique<OtExtSender>(to_receiver, to_sender,
                                           otRandomKey());
        rx->start();
        tx->setup();
        rx->setup();
    });
    r.add("gc.base_ot_ms", base_ms, "ms");

    const uint32_t m = std::max(1u, in.otBatch);
    const std::vector<bool> choices = seededBits(11, m);
    std::vector<Label> m0(m), m1(m);
    Prg rng(13);
    for (uint32_t j = 0; j < m; ++j) {
        m0[j] = rng.nextLabel();
        m1[j] = rng.nextLabel();
    }
    bool ok = true;
    const double batch_ms = medianMs("gc.ot_batch", 5, 50, [&] {
        rx->sendChoices(choices);
        tx->send(m0, m1);
        const std::vector<Label> got = rx->receiveLabels();
        for (uint32_t j = 0; j < m; ++j)
            ok = ok && got[j] == (choices[j] ? m1[j] : m0[j]);
    });
    if (!ok)
        r.correct = false;
    r.add("gc.ot_batch_size", m, "count");
    r.add("gc.ot_batch_us", batch_ms * 1e3, "us");
    r.add("gc.iknp_ns_per_ot", batch_ms * 1e6 / m, "ns");
}

void
probeChain(Result &r)
{
    const chain::ChainWorkload wl =
        chain::resolveChainWorkload("ChainMillSum:32");
    const chain::ChainPlan &plan = wl.plan;

    std::vector<chain::GarbledComponent> comps;
    for (size_t n = 0; n < plan.nodes.size(); ++n)
        comps.push_back(chain::captureComponent(plan.nodes[n], 100 + n));
    std::vector<const chain::GarbledComponent *> ptrs;
    for (const chain::GarbledComponent &c : comps)
        ptrs.push_back(&c);
    const double rows = 2.0 * std::max(1u, plan.numLinks());
    const double link_ms = medianMs("chain.link", 9, 20, [&] {
        gSink = gSink + chain::buildLinkTables(plan, ptrs).size();
    });
    r.add("chain.link_ns_per_row", link_ms * 1e6 / rows, "ns");

    // Real chained sessions over an in-memory transport, the garbler
    // linking through a timed wrapper around a prewarmed pool.
    serve::PoolOptions popts;
    popts.depth = 16;
    serve::ComponentPool pool(popts);
    pool.trackPlan(plan);
    pool.prewarm();
    std::atomic<uint64_t> calls{0}, ns{0};
    const chain::ComponentProvider provider =
        timedProvider(pool.provider(), calls, ns);

    auto pair = LoopbackTransport::createPair();
    std::unique_ptr<LoopbackTransport> g = std::move(pair.first);
    std::unique_ptr<LoopbackTransport> e = std::move(pair.second);
    constexpr int kSessions = 8;
    std::atomic<bool> ok{true};
    std::thread evaluator([&] {
        try {
            e->handshake(PeerRole::Evaluator);
            OtConnectionCache cache;
            RemoteOptions o;
            o.otCache = &cache;
            for (int s = 0; s < kSessions; ++s) {
                const chain::ChainResult res = chain::runChainEvaluator(
                    plan, wl.evaluatorBits, *e, o);
                if (res.outputs != wl.expectedOutputs)
                    ok = false;
            }
        } catch (const std::exception &) {
            ok = false;
        }
    });
    try {
        g->handshake(PeerRole::Garbler);
        OtConnectionCache cache;
        RemoteOptions o;
        o.otCache = &cache;
        for (int s = 0; s < kSessions; ++s)
            chain::runChainGarbler(plan, wl.garblerBits, *g, provider, o);
    } catch (const std::exception &) {
        ok = false;
        g.reset(); // unblock the evaluator
    }
    evaluator.join();
    if (!ok)
        r.correct = false;
    r.add("chain.acquire_us_per_component",
          double(ns.load()) / 1e3 / double(std::max<uint64_t>(1, calls)),
          "us");
}

void
probeCircuits(const ProbeInputs &in, Result &r)
{
    double build = 0, parse = 0, analyze = 0;
    for (const std::string &spec : in.circuitSpecs) {
        Netlist nl;
        build += medianMs("circuit.build", 3, 0,
                          [&] { nl = buildCircuit(spec); });
        const std::string text = writeBristolString(nl);
        Netlist parsed;
        parse += medianMs("circuit.bristol_parse", 3, 0,
                          [&] { parsed = readBristolString(text); });
        analyze += medianMs("circuit.analyze", 3, 0, [&] {
            gSink = gSink + analyzeNetlist(parsed).diags.size();
        });
    }
    const double n = double(std::max<size_t>(1, in.circuitSpecs.size()));
    r.add("circuit.build_ms", build / n, "ms");
    r.add("circuit.bristol_parse_ms", parse / n, "ms");
    r.add("circuit.analyze_ms", analyze / n, "ms");
}

/** Compiler passes and the simulator over the VIP fleet. */
void
probeCompilerSim(Result &r)
{
    const HaacConfig cfg;
    double reorder = 0, rename = 0, esw = 0, schedule = 0, sim = 0,
           self = 0, kcycles_total = 0;
    uint64_t oor = 0, live = 0;
    uint64_t stalls[6] = {};
    std::vector<std::pair<std::string, double>> modeled;
    for (const std::string &name : vipNames()) {
        const Netlist nl = vipWorkload(name, false).netlist;
        const HaacProgram base = assemble(nl);
        std::vector<uint32_t> order;
        HaacProgram prog;
        StreamSet streams;
        SimStats st;
        const double t_reorder = medianMs("compiler.reorder", 1, 0,
                                          [&] { order = reorderFull(base); });
        const double t_rename = medianMs("compiler.rename", 1, 0, [&] {
            prog = applyOrder(base, order);
        });
        const double t_esw = medianMs("compiler.esw", 1, 0, [&] {
            live += applyEsw(prog, cfg.swwWires());
        });
        oor += countOorReads(prog, cfg.swwWires());
        const double t_schedule = medianMs("compiler.schedule", 1, 0, [&] {
            streams = recordSchedule(prog, cfg);
        });
        const double t_sim = medianMs("sim.run", 1, 0, [&] {
            st = runSimulation(prog, cfg, streams, SimMode::Combined);
        });

        // The same pipeline through the Session facade; what it spends
        // beyond the parts above is the api layer's own time.
        RunReport rep;
        const double t_session = medianMs("api.run_haac_sim", 1, 0, [&] {
            Session s(nl, name);
            rep = s.runHaacSim(SimMode::Combined);
        });
        if (rep.sim.cycles != st.cycles)
            r.correct = false;

        reorder += t_reorder;
        rename += t_rename;
        esw += t_esw;
        schedule += t_schedule;
        sim += t_sim;
        self += t_session - (t_reorder + t_rename + t_esw + t_schedule +
                             t_sim);
        kcycles_total += double(st.cycles) / 1e3;
        modeled.emplace_back(name, double(st.cycles) / 1e3);
        const uint64_t s[6] = {st.stallOperand,    st.stallInstrQueue,
                               st.stallTableQueue, st.stallOorwQueue,
                               st.stallBank,       st.stallWriteBuffer};
        for (int i = 0; i < 6; ++i)
            stalls[i] += s[i];
    }
    const double n = double(vipNames().size());
    r.add("compiler.reorder_ms", reorder / n, "ms");
    r.add("compiler.rename_ms", rename / n, "ms");
    r.add("compiler.esw_ms", esw / n, "ms");
    r.add("compiler.schedule_ms", schedule / n, "ms");
    r.add("compiler.oor_reads", double(oor), "count");
    r.add("compiler.live_wires", double(live), "count");
    r.add("sim.run_ms", sim / n, "ms");
    r.add("sim.kcycles_per_host_ms", kcycles_total / sim, "kcycles/ms");
    static const char *const kCauses[6] = {
        "operand", "instr_queue", "table_queue",
        "oorw_queue", "bank", "write_buffer"};
    uint64_t all = 0;
    for (uint64_t s : stalls)
        all += s;
    for (int i = 0; i < 6; ++i)
        r.add(std::string("sim.stall_share.") + kCauses[i],
              all ? double(stalls[i]) / double(all) : 0, "ratio");
    for (const auto &[name, kc] : modeled)
        r.add("sim.modeled_kcycles." + name, kc, "kcycles");
    r.add("api.session_self_ms", self / n, "ms");
}

/** TcpTransport::connect + handshake against a bare loopback acceptor. */
void
probeConnect()
{
    constexpr int kConnects = 16;
    TcpListener listener(0, "127.0.0.1");
    std::thread acceptor([&] {
        for (int i = 0; i < kConnects; ++i) {
            try {
                std::unique_ptr<TcpTransport> t = listener.accept();
                t->handshake(PeerRole::Server);
            } catch (const NetError &) {
                return;
            }
        }
    });
    try {
        for (int i = 0; i < kConnects; ++i) {
            ScopedSpan span("net.connect");
            std::unique_ptr<TcpTransport> t =
                TcpTransport::connect("127.0.0.1", listener.port());
            t->handshake(PeerRole::Evaluator);
        }
    } catch (...) {
        listener.close(); // unblocks the acceptor
        acceptor.join();
        throw;
    }
    acceptor.join();
}

} // namespace

void
probeLayers(const ProbeInputs &in, Result &r)
{
    double aes_ns = 0;
    probeCrypto(r, aes_ns);
    probeGc(in, aes_ns, r);
    probeChain(r);
    probeCircuits(in, r);
    probeCompilerSim(r);
    probeConnect();
}

void
windowLayerMetrics(const Window &w, const LayerTimes &layer, Result &r)
{
    const double sessions = double(std::max<size_t>(1, w.samples.size()));
    std::vector<double> connects;
    for (const Span &s : Tracer::get().spans())
        if (std::string(s.name) == "net.connect")
            connects.push_back(double(s.endNs - s.startNs) / 1e6);
    r.add("net.connect_ms", median(connects), "ms");
    r.add("net.request_ms",
          layer.requests ? double(layer.requestNs) / 1e6 /
                               double(layer.requests)
                         : 0,
          "ms");
    r.add("net.client_recv_wait_ms",
          double(layer.clientIo.recvWaitNs) / 1e6 / sessions, "ms");
    r.add("net.server_recv_wait_ms",
          double(layer.serverIo.recvWaitNs) / 1e6 / sessions, "ms");
    r.add("net.send_ms",
          double(layer.clientIo.sendNs + layer.serverIo.sendNs) / 1e6 /
              sessions,
          "ms");
    r.add("net.frames_per_session", double(w.frames) / sessions, "count");

    auto ratio = [](uint64_t a, uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };
    r.add("serve.sessions", double(w.serverSessions), "count");
    r.add("serve.garble_pool_lookups", double(w.garbleLookups), "count");
    r.add("serve.garble_pool_hit_ratio",
          ratio(w.garbleHits, w.garbleLookups), "ratio");
    r.add("serve.component_pool_lookups", double(w.componentLookups),
          "count");
    r.add("serve.component_pool_hit_ratio",
          ratio(w.componentHits, w.componentLookups), "ratio");
    r.add("serve.ot_reuse_ratio", ratio(w.otReused, w.serverSessions),
          "ratio");
    r.add("serve.pool_produced_per_session",
          ratio(w.poolProduced, w.serverSessions), "count");
}

} // namespace hb
