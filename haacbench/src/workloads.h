/**
 * @file
 * The four benchmark workloads. Each is a closed loop: a client sends
 * its next request only after its previous session's outputs came back
 * and were checked.
 *
 *  - matmult-inline: "MatMult" on a persistent connection, 1 server
 *    worker, no pool: every session garbles inline.
 *  - pooled-mix: 1 persistent connection cycling 3 "ChainMillSum:32"
 *    (ComponentPool) and 1 "Million:32" (GarblePool) sessions; client
 *    and server worker share one CPU, one filler thread per pool on
 *    the others.
 *  - dotprod-upload: one-shot sessions, each a fresh TCP connection
 *    that uploads the DotProd circuit as Bristol text; 1 server worker.
 *  - sim-fleet: Session::runHaacSim jobs over the eight default-scale
 *    VIP workloads, in whole rotations, on one thread; its figures
 *    come from each job's fastest session (SimFleet::summarize).
 */
#ifndef HAACBENCH_WORKLOADS_H
#define HAACBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "circuit/netlist.h"

namespace hb {

/** One completed, correct session. */
struct Sample
{
    double t = 0;     ///< completion, seconds since the window opened
    double ms = 0;    ///< latency
    uint32_t job = 0; ///< which circuit (sim-fleet's VIP index)
    double cpuMs = 0; ///< thread CPU time (sim-fleet only)
};

/** Process CPU seconds at the end of one unit of client work. */
struct Mark
{
    double t = 0;
    double cpu = 0;
};

/** What one timed window measured. */
struct Window
{
    Clock::time_point origin;
    std::vector<Sample> samples; ///< sorted by completion time
    std::vector<Mark> marks;     ///< sorted; the first is the opening
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< NetError, refusal or wrong output
    uint64_t wrong = 0;  ///< the wrong-output share of failed
    double seconds = 0;
    /** Raw transport bytes, both directions (sim-fleet: modeled
     *  off-chip wire bytes, the paper's Table 3 quantity). */
    double wireBytes = 0;
    uint64_t frames = 0; ///< client-side frames sent + received

    /** @name Serving-layer counters over the window */
    /// @{
    uint64_t garbleLookups = 0, garbleHits = 0;
    uint64_t componentLookups = 0, componentHits = 0;
    uint64_t poolProduced = 0;
    uint64_t otReused = 0;
    uint64_t serverSessions = 0;
    /// @}

    void merge(const Window &o);
    double
    since() const
    {
        return msSince(origin) / 1e3;
    }
};

/**
 * A window reduced to its end-to-end figures. The window is cut into
 * time slices at unit boundaries (BenchWorkload::SliceRule); each
 * figure is taken per slice and the median slice is reported, so a few
 * seconds of a disturbed shared host move no figure, or the best slice,
 * where the host's slow spells outlast a median.
 */
struct Summary
{
    double sessionsPerS = 0;
    double p50Ms = 0;
    double p90Ms = 0;
    double cpuMsPerSession = 0;
    size_t slices = 0;
    /** Per-slice figures, one line each (for stderr). */
    std::string detail;

    static constexpr size_t kSlices = 10;
    static constexpr size_t kMinSliceSessions = 12;
};

/** Layer timing gathered while the tracer is on. */
struct LayerTimes
{
    IoTimes clientIo;
    IoTimes serverIo;
    std::atomic<uint64_t> requestNs{0};
    std::atomic<uint64_t> requests{0};
};

/** The circuits whose layers a traced run probes for a workload. */
struct ProbeInputs
{
    /** Netlist garbled/evaluated by the gc.* probes. */
    haac::Netlist gcNetlist;
    /** Evaluator bits per session (the IKNP batch size). */
    uint32_t otBatch = 0;
    /** Specs built/parsed/analyzed by the circuit.* probes. */
    std::vector<std::string> circuitSpecs;
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build everything the window needs (timed as setup_s). */
    virtual void setUp() = 0;
    /** Release what setUp() built (clients first, then the server). */
    virtual void tearDown() = 0;
    virtual Window run(double seconds) = 0;

    /** Latency quantile of some sessions; pooled by default. */
    virtual double latencyQuantile(const std::vector<Sample> &s,
                                   double q) const;

    /**
     * How summarize() cuts a window: at most @c slices slices, and the
     * best slice's figure (highest rate, lowest latency and CPU) rather
     * than the median slice's when @c best is set.
     */
    struct SliceRule
    {
        size_t slices = Summary::kSlices;
        bool best = false;
    };
    virtual SliceRule sliceRule() const { return {}; }

    /** Sliced figures (see Summary) unless a workload says otherwise. */
    virtual Summary summarize(const Window &w) const;

    /** HAAC-modeled kilocycles, one per distinct circuit served. */
    virtual std::vector<double> modeledKcycles() = 0;

    virtual ProbeInputs probeInputs() const = 0;

    /** Set-up repetitions whose median is setup_s. */
    virtual int setupReps() const { return 5; }

    LayerTimes layer;
};

std::unique_ptr<BenchWorkload> makeWorkload(const std::string &name,
                                            uint64_t seed);

const std::vector<std::string> &workloadNames();

/**
 * Build one circuit by spec: a VIP name or a server spec
 * ("Million:32"), "ChainMillSum:32" (flattened plan), or
 * "DotProd-upload" (DotProd with both vectors evaluator inputs, the
 * circuit dotprod-upload ships).
 */
haac::Netlist buildCircuit(const std::string &spec);

/** HAAC-modeled kilocycles of one circuit (default config). */
double modeledKcyclesOf(const haac::Netlist &netlist);

} // namespace hb

#endif // HAACBENCH_WORKLOADS_H
