/**
 * @file
 * Thread-safe LRU cache: the bounded-memory building block of the
 * serving layer (GcServer's resolved-workload and chain caches).
 *
 * Values are shared_ptr<const V> so a hit can be handed to a session
 * while an eviction or a capacity-zero configuration drops the cache's
 * own reference — readers never observe a value mutating or dying
 * under them. All operations take one internal mutex; the critical
 * sections are pointer moves and list splices, never user-value
 * construction, so contention stays negligible next to the work the
 * cache exists to avoid.
 */
#ifndef HAAC_SERVE_CACHE_H
#define HAAC_SERVE_CACHE_H

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace haac {
namespace serve {

/**
 * A bounded map from Key to shared_ptr<const Value> with
 * least-recently-used eviction.
 *
 * Key needs operator== and std::hash; a get() promotes the entry to
 * most-recently-used. put() on a present key replaces the value in
 * place (and promotes).
 */
template <typename Key, typename Value>
class LruCache
{
  public:
    /** @param capacity maximum entries; 0 disables caching entirely. */
    explicit LruCache(size_t capacity) : capacity_(capacity) {}

    /** The value under @p key, or nullptr. */
    std::shared_ptr<const Value>
    get(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it == index_.end())
            return nullptr;
        mru_.splice(mru_.begin(), mru_, it->second);
        return it->second->second;
    }

    /** Insert or replace @p key, evicting the LRU entry when full. */
    void
    put(const Key &key, std::shared_ptr<const Value> value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (capacity_ == 0)
            return;
        auto it = index_.find(key);
        if (it != index_.end()) {
            it->second->second = std::move(value);
            mru_.splice(mru_.begin(), mru_, it->second);
            return;
        }
        if (mru_.size() >= capacity_) {
            index_.erase(mru_.back().first);
            mru_.pop_back();
        }
        mru_.emplace_front(key, std::move(value));
        index_.emplace(key, mru_.begin());
    }

    /**
     * The value under @p key, or make()'s, cached on the way out.
     * make() runs unlocked, so two racing misses may both make one.
     */
    template <typename Make>
    std::shared_ptr<const Value>
    getOrMake(const Key &key, Make make)
    {
        std::shared_ptr<const Value> value = get(key);
        if (value == nullptr) {
            value = make();
            put(key, value);
        }
        return value;
    }

  private:
    using Entry = std::pair<Key, std::shared_ptr<const Value>>;

    const size_t capacity_;
    std::mutex mutex_;
    std::list<Entry> mru_; ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
};

} // namespace serve
} // namespace haac

#endif // HAAC_SERVE_CACHE_H
