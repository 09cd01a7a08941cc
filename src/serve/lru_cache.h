#ifndef SUBREC_SERVE_LRU_CACHE_H_
#define SUBREC_SERVE_LRU_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace subrec::serve {

/// Sharded LRU cache: the key hash picks a shard, each shard is an
/// independently-locked map + recency list, so concurrent lookups on
/// different shards never contend. Capacity is divided evenly across
/// shards (so eviction is per-shard approximate LRU, the standard
/// trade-off). Hit/miss tallies are process-cheap relaxed atomics.
template <typename K, typename V, typename Hash = std::hash<K>>
class ShardedLruCache {
 public:
  ShardedLruCache(size_t capacity, size_t num_shards)
      : per_shard_capacity_((capacity + num_shards - 1) / num_shards) {
    SUBREC_CHECK_GT(capacity, 0u);
    SUBREC_CHECK_GT(num_shards, 0u);
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
  }

  /// Returns a copy of the cached value and refreshes its recency.
  std::optional<V> Get(const K& key) {
    Shard& shard = ShardFor(key);
    common::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  /// Inserts or overwrites; evicts the shard's least-recent entry on
  /// overflow.
  void Put(const K& key, V value) {
    Shard& shard = ShardFor(key);
    common::MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second->second = std::move(value);
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      return;
    }
    shard.order.emplace_front(key, std::move(value));
    shard.map[key] = shard.order.begin();
    if (shard.map.size() > per_shard_capacity_) {
      shard.map.erase(shard.order.back().first);
      shard.order.pop_back();
    }
  }

  /// Drops every entry (explicit invalidation, e.g. on snapshot swap).
  void Clear() {
    for (auto& shard : shards_) {
      common::MutexLock lock(&shard->mu);
      shard->map.clear();
      shard->order.clear();
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      common::MutexLock lock(&shard->mu);
      total += shard->map.size();
    }
    return total;
  }

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t num_shards() const { return shards_.size(); }

  /// The shard `key` lives in. The key's hash goes through a splitmix64
  /// finalizer first: std::hash of an integer is the identity in common
  /// standard libraries, so keys that differ only in their high bits (the
  /// service's user field above a fixed n) would otherwise all land on one
  /// shard and share its 1/num_shards of the capacity.
  size_t ShardOf(const K& key) const {
    uint64_t h = static_cast<uint64_t>(Hash{}(key));
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<size_t>(h % shards_.size());
  }

 private:
  struct Shard {
    mutable common::Mutex mu;
    // front = most recent
    std::list<std::pair<K, V>> order SUBREC_GUARDED_BY(mu);
    std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator,
                       Hash>
        map SUBREC_GUARDED_BY(mu);
  };

  Shard& ShardFor(const K& key) { return *shards_[ShardOf(key)]; }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t per_shard_capacity_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace subrec::serve

#endif  // SUBREC_SERVE_LRU_CACHE_H_
