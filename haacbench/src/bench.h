/**
 * @file
 * Shared pieces of the repo benchmark: options, metrics, sample
 * statistics, process counters, the span tracer and the timing
 * Transport decorator.
 *
 * The benchmark lives outside src/ on purpose: every number it prints
 * is taken around calls into the library's public API, so a change
 * inside a layer shows up here without the benchmark moving.
 */
#ifndef HAACBENCH_BENCH_H
#define HAACBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "chain/link.h"
#include "net/transport.h"

namespace hb {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Chrome trace-event JSON written by a traced run ("" = none). */
    std::string traceOut;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** A run's result, printed as the last line of stdout. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    std::string toJson() const;
};

/** @name Sample statistics */
/// @{
double median(std::vector<double> v);
/** Linear-interpolated quantile, q in [0, 1] (numpy's default). */
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double> &v);
/// @}

/** @name Whole-process counters (all threads) */
/// @{
double cpuSeconds();
double peakRssMib();
/// @}

/** Deterministic bit vectors from a seed (splitmix64 stream). */
std::vector<bool> seededBits(uint64_t seed, size_t n);

// --- tracing ---------------------------------------------------------------

inline constexpr uint64_t kNoSession = ~uint64_t(0);

/** One timed interval; parent indexes the same tracer's span list. */
struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int32_t parent = -1;
    int32_t tid = 0;
    uint64_t session = kNoSession;
};

/**
 * In-memory span recorder. Spans nest per thread (a thread-local stack
 * supplies each span's parent) and are written out once, at exit, as
 * Chrome trace-event JSON that Perfetto and chrome://tracing open.
 * Disabled, open() is one relaxed load.
 */
class Tracer
{
  public:
    static Tracer &get();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** @return span index, or -1 when disabled or full. */
    int32_t open(const char *name, uint64_t session);
    void close(int32_t index);

    /** Snapshot of every recorded span. */
    std::vector<Span> spans() const;
    uint64_t dropped() const;

    void writeChromeJson(std::ostream &out) const;

    /**
     * Per layer (span-name prefix before the first '.'): span count,
     * total and self milliseconds, where self time is a span's
     * duration minus the part its child spans cover.
     */
    struct LayerTime
    {
        std::string layer;
        uint64_t spans = 0;
        double totalMs = 0;
        double selfMs = 0;
    };
    std::vector<LayerTime> layerTimes() const;

  private:
    static constexpr size_t kMaxSpans = 1u << 20;

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards spans_ and dropped_
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, uint64_t session = kNoSession)
        : index_(Tracer::get().open(name, session))
    {}
    ~ScopedSpan()
    {
        if (index_ >= 0)
            Tracer::get().close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int32_t index_;
};

// --- timing Transport decorator --------------------------------------------

/** Time spent inside one side's transport calls, summed over threads. */
struct IoTimes
{
    std::atomic<uint64_t> recvWaitNs{0};
    std::atomic<uint64_t> sendNs{0};
};

/**
 * Forwards every byte to an owned inner Transport and, while the
 * tracer is enabled, times each readAll (time waiting for the peer)
 * and writeAll into @p times and records net.recv / net.send spans.
 * The server side gets one per accepted socket, the client side one
 * per connection, so either endpoint's waiting is visible without
 * touching src/.
 */
class TimedTransport : public haac::Transport
{
  public:
    TimedTransport(std::unique_ptr<haac::Transport> inner, IoTimes &times,
                   uint64_t session = kNoSession)
        : inner_(std::move(inner)), times_(times), session_(session)
    {}

    void writeAll(const uint8_t *data, size_t n) override;
    void readAll(uint8_t *data, size_t n) override;
    std::string describe() const override { return inner_->describe(); }

    /** Tag this endpoint's spans with the session now running on it. */
    void setSession(uint64_t session) { session_ = session; }

  private:
    std::unique_ptr<haac::Transport> inner_;
    IoTimes &times_;
    uint64_t session_;
};

/**
 * Wrap a component provider so every acquire is timed (and traced as
 * chain.acquire); @p calls / @p ns accumulate across threads.
 */
haac::chain::ComponentProvider
timedProvider(haac::chain::ComponentProvider inner,
              std::atomic<uint64_t> &calls, std::atomic<uint64_t> &ns);

} // namespace hb

#endif // HAACBENCH_BENCH_H
