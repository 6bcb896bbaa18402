#include "service/placement_cache.h"

#include "common/env.h"
#include "telemetry/metrics.h"

namespace mcm::service {

int DefaultPlacementCacheCapacity() {
  static const std::int64_t capacity =
      GetEnvInt("MCMPART_SERVICE_CACHE", 256, 0, 1 << 20);
  return static_cast<int>(capacity);
}

PlacementCache::PlacementCache(std::size_t capacity) : capacity_(capacity) {}

bool PlacementCache::Lookup(const std::string& key,
                            const std::string& request_id,
                            PartitionResponse* response) {
  static telemetry::Counter& hit_counter =
      telemetry::Counter::Get("service/cache_hits");
  static telemetry::Counter& miss_counter =
      telemetry::Counter::Get("service/cache_misses");
  if (capacity_ == 0) {
    miss_counter.Add();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->first != key) {
    ++misses_;
    miss_counter.Add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Move to front.
  *response = it->second->second;
  response->id = request_id;
  response->cached = true;
  ++hits_;
  hit_counter.Add();
  return true;
}

void PlacementCache::Insert(const std::string& key,
                            const PartitionResponse& response) {
  static telemetry::Counter& evictions =
      telemetry::Counter::Get("service/cache_evictions");
  if (capacity_ == 0 || !response.ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Deterministic execution means a re-insert carries the same payload;
    // just refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  PartitionResponse stored = response;
  stored.id.clear();       // Correlation ids are per-request.
  stored.cached = false;   // Lookup() re-marks served copies.
  lru_.emplace_front(key, std::move(stored));
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions.Add();
  }
}

std::size_t PlacementCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::int64_t PlacementCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t PlacementCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace mcm::service
