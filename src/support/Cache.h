//===- support/Cache.h - Bounded thread-safe LRU cache ---------*- C++ -*-===//
//
// Part of OmegaCount (reproduction of Pugh, PLDI 1994).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutex-protected, bounded, least-recently-used cache from string keys
/// to values.  insert() reports how many entries it evicted; callers
/// count hits, misses and evictions in their own per-query counters
/// (support/Stats.h).  The omega layer builds its
/// conjunct memoization (feasibility and projection results keyed by
/// canonical clause form) on top of this; see omega/Omega.h and DESIGN.md
/// §8 for what is and is not safe to memoize.
///
/// Values must be safe to copy out under the lock (the cache hands back
/// copies, never references, so entries can be evicted at any time).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SUPPORT_CACHE_H
#define OMEGA_SUPPORT_CACHE_H

#include "support/ThreadAnnotations.h"

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace omega {

/// Bounded LRU map<string, Value>.  A capacity of 0 disables the cache:
/// every lookup misses and inserts are dropped.
template <typename Value> class LruCache {
public:
  explicit LruCache(size_t Capacity) : Cap(Capacity) {}

  /// Returns a copy of the cached value and refreshes its recency, or
  /// nullopt on a miss.
  std::optional<Value> lookup(const std::string &Key) {
    MutexLock Lock(M);
    if (Cap == 0)
      return std::nullopt;
    auto It = Map.find(Key);
    if (It == Map.end())
      return std::nullopt;
    Order.splice(Order.begin(), Order, It->second);
    return It->second->second;
  }

  /// Inserts (or refreshes) Key -> V, evicting least-recently-used entries
  /// beyond capacity.  Returns the number of entries evicted.
  size_t insert(const std::string &Key, Value V) {
    MutexLock Lock(M);
    if (Cap == 0)
      return 0;
    auto It = Map.find(Key);
    if (It != Map.end()) {
      // Racing computations of the same key produce equal values (keys
      // determine results); keep the existing entry, refresh recency.
      Order.splice(Order.begin(), Order, It->second);
      return 0;
    }
    Order.emplace_front(Key, std::move(V));
    Map.emplace(Key, Order.begin());
    size_t Evicted = 0;
    while (Map.size() > Cap) {
      Map.erase(Order.back().first);
      Order.pop_back();
      ++Evicted;
    }
    return Evicted;
  }

  void setCapacity(size_t Capacity) {
    MutexLock Lock(M);
    Cap = Capacity;
    while (Map.size() > Cap) {
      Map.erase(Order.back().first);
      Order.pop_back();
    }
  }

  size_t capacity() const {
    MutexLock Lock(M);
    return Cap;
  }

  size_t size() const {
    MutexLock Lock(M);
    return Map.size();
  }

  /// Drops all entries.
  void clear() {
    MutexLock Lock(M);
    Map.clear();
    Order.clear();
  }

private:
  mutable Mutex M;
  size_t Cap OMEGA_GUARDED_BY(M);
  /// Front = most recent.
  std::list<std::pair<std::string, Value>> Order OMEGA_GUARDED_BY(M);
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::
                         iterator>
      Map OMEGA_GUARDED_BY(M);
};

} // namespace omega

#endif // OMEGA_SUPPORT_CACHE_H
