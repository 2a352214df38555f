/**
 * @file
 * PrebuiltPool: single-use garbled items made ahead of demand.
 *
 * Garbling needs nothing from the peer, only a circuit and fresh
 * randomness, so a serving process can move it off the request path.
 * Filler threads call each tracked key's maker into a bounded queue
 * of ready items; a session thread pops one. A pop on an empty queue
 * is a miss and the caller garbles inline, exactly what it would do
 * without a pool, so the pool is a pure amortization layer with no
 * correctness surface. GarblePool (serve/pool.h, whole workloads) and
 * ComponentPool (serve/component_pool.h, standard chain components)
 * are this template with their own keys.
 *
 * Security invariant: every item is garbled from fresh randomness and
 * leaves the pool exactly once (tryPop() transfers ownership). A
 * garbling is single-use: replaying one to two evaluators, or linking
 * one component into two sessions, hands the second evaluator labels
 * that decode the first session's wires. tests/test_serve.cc and
 * tests/test_chain.cc replay that attack against pooled items.
 *
 * Makers are stored at track() time and never replaced, so whatever a
 * maker captures (a netlist, a component spec) fixes what its key
 * means. A pool tracks at most kMaxPoolKeys keys, so kMaxPoolKeys x
 * depth x the largest item bounds its memory.
 */
#ifndef HAAC_SERVE_PREBUILT_POOL_H
#define HAAC_SERVE_PREBUILT_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/prg.h"

namespace haac {
namespace serve {

/** Keys one pool tracks at most; past it, sessions garble inline as
 *  misses. Far above any fleet in use (the benches track a few). */
inline constexpr size_t kMaxPoolKeys = 64;

struct PoolOptions
{
    /** Ready items to keep per tracked key (>= 1). */
    size_t depth = 4;
    /** Background filler threads shared across all keys. */
    size_t threads = 1;
    /**
     * Refill trigger (hysteresis for bursty traffic). 0, the
     * default, tops a queue back up after every pop. A value k > 0
     * lets a queue drain to below k ready-plus-inflight items before
     * the fillers start, then fills back to depth — so a prewarmed
     * pool serves a burst without filler threads stealing CPU from
     * the sessions mid-burst. Clamped to depth.
     */
    size_t lowWater = 0;
};

struct PoolStats
{
    uint64_t produced = 0; ///< items made by filler threads
    uint64_t hits = 0;     ///< tryPop() served a ready item
    uint64_t misses = 0;   ///< tryPop() found nothing (inline garble)
    uint64_t ready = 0;    ///< items currently queued
    uint64_t tracked = 0;  ///< keys under management
};

/**
 * Bounded per-key queues of ready items, refilled in the background.
 * @p Item is an owning pointer; a null Item is a miss. Thread-safe;
 * one pool serves a whole GcServer.
 */
template <typename Item>
class PrebuiltPool
{
  public:
    /** Makes one item from its seed; called unlocked, concurrently. */
    using Maker = std::function<Item(uint64_t seed)>;

    explicit PrebuiltPool(const PoolOptions &opts = {}) : opts_(opts)
    {
        opts_.depth = std::max<size_t>(1, opts_.depth);
        opts_.threads = std::max<size_t>(1, opts_.threads);
        fillers_.reserve(opts_.threads);
        for (size_t i = 0; i < opts_.threads; ++i)
            fillers_.emplace_back([this] { fillerLoop(); });
    }

    /** Stops the fillers; items they are still making are dropped. */
    ~PrebuiltPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        work_.notify_all();
        for (std::thread &t : fillers_)
            t.join();
    }

    PrebuiltPool(const PrebuiltPool &) = delete;
    PrebuiltPool &operator=(const PrebuiltPool &) = delete;

    /**
     * Start keeping @p key's queue full. Idempotent: re-tracking a
     * key is a no-op (the first maker wins), and so is tracking a new
     * key once kMaxPoolKeys are tracked.
     */
    void
    track(const std::string &key, Maker make)
    {
        {
            // Look before building a Queue: sessions re-track on every
            // request, and a std::deque allocates when constructed.
            std::lock_guard<std::mutex> lock(mutex_);
            if (!admits(key))
                return;
            queues_.emplace(key, Queue{std::move(make), {}, 0, true});
        }
        work_.notify_all();
    }

    /**
     * Pop a ready item for @p key, or null when the queue is empty or
     * the key untracked (counted as a miss). Ownership transfers: the
     * pool never sees the item again, so it can never be replayed.
     */
    Item
    tryPop(const std::string &key)
    {
        Item item;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = queues_.find(key);
            if (it == queues_.end() || it->second.ready.empty()) {
                ++misses_;
                return item;
            }
            item = std::move(it->second.ready.front());
            it->second.ready.pop_front();
            ++hits_;
        }
        work_.notify_all(); // the queue just got needy
        return item;
    }

    /** Fill every tracked key's queue to depth; block until they are. */
    void
    prewarm()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // A queue resting between the low-water trigger and depth is
        // quiet, so without this the wait below would never end. A full
        // queue stays quiet: marking it would refill its next pop.
        for (auto &kv : queues_) {
            Queue &q = kv.second;
            if (q.ready.size() + q.inflight < opts_.depth)
                q.filling = true;
        }
        work_.notify_all();
        full_.wait(lock, [this] {
            if (stop_)
                return true;
            for (const auto &kv : queues_)
                if (kv.second.ready.size() < opts_.depth)
                    return false;
            return true;
        });
    }

    PoolStats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PoolStats s;
        s.produced = produced_;
        s.hits = hits_;
        s.misses = misses_;
        s.tracked = queues_.size();
        for (const auto &kv : queues_)
            s.ready += kv.second.ready.size();
        return s;
    }

  protected:
    /** Would track(@p key) add it? Lets a caller skip building a maker. */
    bool
    wouldTrack(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return admits(key);
    }

  private:
    /** Untracked, with room for one more key; caller holds mutex_. */
    bool
    admits(const std::string &key) const
    {
        return queues_.size() < kMaxPoolKeys && queues_.count(key) == 0;
    }

    struct Queue
    {
        Maker make;
        std::deque<Item> ready;
        size_t inflight = 0; ///< fillers making items for this key now
        bool filling = true; ///< between low-water trigger and full
    };

    /**
     * A queue is needy while it is filling toward depth; once full it
     * stays quiet until it drains below the low-water trigger
     * (lowWater 0 = trigger on any vacancy).
     */
    bool
    needy(Queue &q) const
    {
        const size_t level = q.ready.size() + q.inflight;
        if (level >= opts_.depth) {
            q.filling = false;
            return false;
        }
        if (!q.filling) {
            const size_t low = std::min(opts_.lowWater, opts_.depth);
            if (low != 0 && level >= low)
                return false;
            q.filling = true;
        }
        return true;
    }

    void
    fillerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            Queue *target = nullptr;
            work_.wait(lock, [&] {
                if (stop_)
                    return true;
                for (auto &kv : queues_) {
                    if (needy(kv.second)) {
                        target = &kv.second;
                        return true;
                    }
                }
                return false;
            });
            if (stop_)
                return;

            ++target->inflight;
            // Make unlocked, from a fresh OS-entropy seed. `target` and
            // its maker stay valid: keys are never untracked and makers
            // never replaced.
            lock.unlock();
            Item item = target->make(randomSeed());
            lock.lock();
            --target->inflight;
            if (stop_)
                return; // drop it: nobody will pop it now
            ++produced_;
            target->ready.push_back(std::move(item));
            full_.notify_all();
        }
    }

    PoolOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable work_; ///< queues got needy / stopping
    std::condition_variable full_; ///< an item landed (prewarm)
    std::map<std::string, Queue> queues_;
    uint64_t produced_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    bool stop_ = false;
    std::vector<std::thread> fillers_; ///< last: they use the above
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_PREBUILT_POOL_H
