#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace hb {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

thread_local std::vector<int32_t> tlsStack;
thread_local int32_t tlsTid = -1;
std::atomic<int32_t> nextTid{0};

} // namespace

std::string
Result::toJson() const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}}";
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::vector<bool>
seededBits(uint64_t seed, size_t n)
{
    uint64_t state = seed;
    std::vector<bool> bits(n);
    uint64_t word = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i % 64 == 0)
            word = splitmix(state);
        bits[i] = ((word >> (i % 64)) & 1) != 0;
    }
    return bits;
}

// --- Tracer -----------------------------------------------------------------

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

int32_t
Tracer::open(const char *name, uint64_t session)
{
    if (!enabled())
        return -1;
    if (tlsTid < 0)
        tlsTid = nextTid.fetch_add(1);
    Span span;
    span.name = name;
    span.parent = tlsStack.empty() ? -1 : tlsStack.back();
    span.tid = tlsTid;
    span.session = session;
    int32_t index = -1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (spans_.size() >= kMaxSpans) {
            ++dropped_;
            return -1;
        }
        // Inherit the session of the enclosing span when not given.
        if (session == kNoSession && span.parent >= 0)
            span.session = spans_[size_t(span.parent)].session;
        index = int32_t(spans_.size());
        spans_.push_back(span);
        spans_.back().startNs = nowNs();
    }
    tlsStack.push_back(index);
    return index;
}

void
Tracer::close(int32_t index)
{
    const int64_t end = nowNs();
    if (!tlsStack.empty() && tlsStack.back() == index)
        tlsStack.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(index)].endNs = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
Tracer::writeChromeJson(std::ostream &out) const
{
    const std::vector<Span> all = spans();
    const int64_t origin = all.empty() ? 0 : all.front().startNs;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.find('.'));
        out << (i ? ",\n" : "") << "{\"name\": \"" << name
            << "\", \"cat\": \"" << layer << "\", \"ph\": \"X\", \"ts\": "
            << jsonNumber(double(s.startNs - origin) / 1e3)
            << ", \"dur\": " << jsonNumber(double(s.endNs - s.startNs) / 1e3)
            << ", \"pid\": 1, \"tid\": " << s.tid
            << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent;
        if (s.session != kNoSession)
            out << ", \"session\": " << s.session;
        out << "}}";
    }
    out << "\n]}\n";
}

std::vector<Tracer::LayerTime>
Tracer::layerTimes() const
{
    const std::vector<Span> all = spans();
    std::vector<int64_t> child_ns(all.size(), 0);
    for (const Span &s : all)
        if (s.parent >= 0)
            child_ns[size_t(s.parent)] += s.endNs - s.startNs;

    std::map<std::string, LayerTime> by_layer;
    for (size_t i = 0; i < all.size(); ++i) {
        const std::string name = all[i].name;
        const std::string layer = name.substr(0, name.find('.'));
        const int64_t dur = all[i].endNs - all[i].startNs;
        LayerTime &lt = by_layer[layer];
        lt.layer = layer;
        ++lt.spans;
        lt.totalMs += double(dur) / 1e6;
        lt.selfMs += double(dur - child_ns[i]) / 1e6;
    }
    std::vector<LayerTime> out;
    for (auto &[layer, lt] : by_layer)
        out.push_back(lt);
    return out;
}

// --- TimedTransport ---------------------------------------------------------

void
TimedTransport::writeAll(const uint8_t *data, size_t n)
{
    if (!Tracer::get().enabled()) {
        inner_->writeAll(data, n);
        return;
    }
    ScopedSpan span("net.send", session_);
    const auto start = Clock::now();
    inner_->writeAll(data, n);
    times_.sendNs += uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

void
TimedTransport::readAll(uint8_t *data, size_t n)
{
    if (!Tracer::get().enabled()) {
        inner_->readAll(data, n);
        return;
    }
    ScopedSpan span("net.recv", session_);
    const auto start = Clock::now();
    inner_->readAll(data, n);
    times_.recvWaitNs += uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

haac::chain::ComponentProvider
timedProvider(haac::chain::ComponentProvider inner,
              std::atomic<uint64_t> &calls, std::atomic<uint64_t> &ns)
{
    return [inner = std::move(inner), &calls,
            &ns](uint32_t node, const haac::chain::ComponentSpec &spec) {
        ScopedSpan span("chain.acquire");
        const auto start = Clock::now();
        haac::chain::AcquiredComponent acquired = inner(node, spec);
        ns += uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count());
        ++calls;
        return acquired;
    };
}

} // namespace hb
