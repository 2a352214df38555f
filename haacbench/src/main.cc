/**
 * @file
 * haacbench: the repo benchmark.
 *
 *   haacbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file.json>]
 *
 * --trace 0 prints the end-to-end metrics: set-up (median of repeated
 * set-ups), then one closed-loop window of --seconds. --trace 1 prints
 * the per-layer metrics: layer probes, then an untraced and a traced
 * window of --seconds/2 each (their p50 difference is the tracing
 * overhead), and writes the spans as Chrome trace-event JSON.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Human-readable detail goes to stderr.
 */
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "layers.h"
#include "workloads.h"

namespace hb {
namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "haacbench: " << why
              << "\nusage: haacbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(val.c_str());
        } else if (arg == "--trace") {
            o.trace = val == "1";
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

void
account(const Window &w, Result &r)
{
    r.attempted += w.attempted;
    r.failed += w.failed;
    if (w.wrong > 0 || w.samples.empty())
        r.correct = false;
}

/** setup_s: the median of several full set-ups (the last one stays). */
double
timedSetUp(BenchWorkload &wl)
{
    std::vector<double> times;
    for (int rep = 0; rep < wl.setupReps(); ++rep) {
        if (rep > 0)
            wl.tearDown();
        const auto start = Clock::now();
        wl.setUp();
        times.push_back(msSince(start) / 1e3);
    }
    return median(times);
}

Result
endToEnd(const Options &opt, BenchWorkload &wl)
{
    Result r;
    const double setup_s = timedSetUp(wl);
    const Window w = wl.run(opt.seconds);
    const double rss = peakRssMib();
    account(w, r);

    const double n = double(std::max<size_t>(1, w.samples.size()));
    const Summary sum = wl.summarize(w);
    std::cerr << opt.workload << ": " << w.samples.size()
              << " sessions in " << w.seconds << " s over " << sum.slices
              << " slices; whole-window rate "
              << double(w.samples.size()) / w.seconds << "/s, p50 "
              << wl.latencyQuantile(w.samples, 0.5) << " ms, p90 "
              << wl.latencyQuantile(w.samples, 0.9) << " ms; set-up "
              << setup_s << " s\n"
              << sum.detail;
    r.add("sessions_per_s", sum.sessionsPerS, "1/s");
    r.add("session_p50_ms", sum.p50Ms, "ms");
    r.add("session_p90_ms", sum.p90Ms, "ms");
    r.add("cpu_ms_per_session", sum.cpuMsPerSession, "ms");
    r.add("wire_kib_per_session", w.wireBytes / 1024.0 / n, "KiB");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mib", rss, "MiB");
    wl.tearDown();
    r.add("modeled_kcycles_geomean", geomean(wl.modeledKcycles()),
          "kcycles");
    return r;
}

Result
traced(const Options &opt, BenchWorkload &wl)
{
    Result r;
    Tracer &tracer = Tracer::get();

    // Probe with nothing else set up: an idle server connection would
    // sit through the probes, and slow (e.g. sanitizer) builds take
    // longer than the server's receive timeout.
    wl.setUp();
    const ProbeInputs in = wl.probeInputs();
    wl.tearDown();
    tracer.enable(true);
    probeLayers(in, r);
    tracer.enable(false);
    wl.setUp();

    const double half = opt.seconds / 2;
    const Window plain = wl.run(half);
    const double p50_plain = wl.summarize(plain).p50Ms;
    tracer.enable(true);
    const Window w = wl.run(half);
    tracer.enable(false);
    const double p50_traced = wl.summarize(w).p50Ms;
    wl.tearDown();
    account(plain, r);
    account(w, r);
    windowLayerMetrics(w, wl.layer, r);

    r.add("trace.overhead_ms", p50_traced - p50_plain, "ms");
    r.add("trace.overhead_share", (p50_traced - p50_plain) / p50_plain,
          "ratio");
    r.add("trace.spans", double(tracer.spans().size()), "count");

    std::cerr << "layer self time (" << opt.workload << ", traced run, "
              << w.samples.size() << " traced sessions; spans dropped: "
              << tracer.dropped() << ")\n";
    for (const Tracer::LayerTime &lt : tracer.layerTimes())
        std::cerr << "  " << lt.layer << ": " << lt.spans << " spans, "
                  << lt.totalMs << " ms total, " << lt.selfMs
                  << " ms self\n";
    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        tracer.writeChromeJson(out);
        if (!out)
            std::cerr << "could not write " << opt.traceOut << "\n";
    }
    return r;
}

} // namespace
} // namespace hb

int
main(int argc, char **argv)
{
    using namespace hb;
    const Options opt = parseArgs(argc, argv);
    std::unique_ptr<BenchWorkload> wl;
    try {
        wl = makeWorkload(opt.workload, opt.seed);
    } catch (const std::exception &e) {
        usage(e.what());
    }
    try {
        const Result r = opt.trace ? traced(opt, *wl) : endToEnd(opt, *wl);
        std::cout << r.toJson() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "haacbench: " << e.what() << "\n";
        return 1;
    }
}
