// Content-addressed placement cache for the partition service.
//
// Sits *above* the per-request eval/embedding caches: a hit returns the
// complete response (assignment + cost breakdown) of an earlier identical
// request without rebuilding the graph, context, or policy and without a
// single cost-model evaluation.  Keys are RequestCacheKey(request) -- the
// graph's content hash plus every placement-shaping field -- and the full
// key string is compared on lookup, so hash collisions can never alias two
// different requests.  Because request execution is a deterministic
// function of exactly those fields (the serving determinism contract,
// docs/ARCHITECTURE.md), a hit is bit-identical to a fresh execution.
//
// Eviction is strict LRU.  Thread-safe: the server's executors probe
// and fill concurrently.  Capacity comes from MCMPART_SERVICE_CACHE
// (entries; 0 disables) unless the server overrides it.
//
// Telemetry: service/cache_hits, service/cache_misses,
// service/cache_evictions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "service/protocol.h"

namespace mcm::service {

// MCMPART_SERVICE_CACHE (entries, clamped to [0, 1<<20]), default 256;
// 0 disables caching.
int DefaultPlacementCacheCapacity();

class PlacementCache {
 public:
  explicit PlacementCache(std::size_t capacity);

  // Returns true and fills *response when `key` is cached (marking the
  // response as cached and re-stamping the caller's correlation id).
  bool Lookup(const std::string& key, const std::string& request_id,
              PartitionResponse* response);

  // Inserts a successful response under `key`.  Failed responses are never
  // cached -- a transient overload or fault must not be replayed.
  void Insert(const std::string& key, const PartitionResponse& response);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;

 private:
  using Entry = std::pair<std::string, PartitionResponse>;
  using LruList = std::list<Entry>;  // Front = most recently used.

  const std::size_t capacity_;
  mutable std::mutex mu_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
  std::int64_t hits_ = 0;    // Guarded by mu_.
  std::int64_t misses_ = 0;  // Guarded by mu_.
};

}  // namespace mcm::service
