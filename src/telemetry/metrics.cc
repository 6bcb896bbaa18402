#include "telemetry/metrics.h"

#include <algorithm>
#include <atomic>
#include <map>

namespace mcm::telemetry {

namespace internal {

// One thread's shard of one counter.  Owned by the Counter (so values of
// exited threads persist); addressed lock-free through a per-thread table.
struct CounterCell {
  std::atomic<std::int64_t> value{0};
};

struct HistogramCell {
  explicit HistogramCell(std::size_t num_buckets) : buckets(num_buckets) {}
  std::vector<std::atomic<std::int64_t>> buckets;  // Finite + overflow.
  std::atomic<std::int64_t> count{0};
  std::atomic<double> sum{0.0};
};

}  // namespace internal

namespace {

using internal::CounterCell;
using internal::HistogramCell;

// Per-thread cell tables, indexed by metric id.  Raw pointers only: the
// metric owns the cell, the table is a cache, and a table outliving its
// thread merely drops the pointers.
thread_local std::vector<CounterCell*> tls_counter_cells;
thread_local std::vector<HistogramCell*> tls_histogram_cells;

}  // namespace

// Interning registry.  A leaked heap singleton so worker threads recording
// during static destruction never race the registry's teardown.
class Registry {
 public:
  static Registry& Instance() {
    static Registry* const registry = new Registry;
    return *registry;
  }

  Counter& GetCounter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      const int id = static_cast<int>(counters_.size());
      it = counters_
               .emplace(std::string(name),
                        std::unique_ptr<Counter>(
                            new Counter(std::string(name), id)))
               .first;
    }
    return *it->second;
  }

  Gauge& GetGauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      it = gauges_
               .emplace(std::string(name),
                        std::unique_ptr<Gauge>(new Gauge(std::string(name))))
               .first;
    }
    return *it->second;
  }

  Histogram& GetHistogram(std::string_view name,
                          std::span<const double> bounds) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      const int id = static_cast<int>(histograms_.size());
      std::vector<double> sorted(bounds.begin(), bounds.end());
      std::sort(sorted.begin(), sorted.end());
      it = histograms_
               .emplace(std::string(name),
                        std::unique_ptr<Histogram>(new Histogram(
                            std::string(name), id, std::move(sorted))))
               .first;
    }
    return *it->second;
  }

  MetricsSnapshot Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot snapshot;
    for (const auto& [name, counter] : counters_) {
      snapshot.counters.emplace_back(name, counter->Value());
    }
    for (const auto& [name, gauge] : gauges_) {
      snapshot.gauges.emplace_back(name, gauge->Value());
    }
    for (const auto& [name, histogram] : histograms_) {
      snapshot.histograms.emplace_back(name, histogram->Snap());
    }
    return snapshot;
  }

  void Reset();

 private:
  Registry() = default;

  std::mutex mu_;
  // std::map keeps the snapshot name-sorted without a second pass.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// ---- Counter ----------------------------------------------------------------

Counter::Counter(std::string name, int id) : name_(std::move(name)), id_(id) {}

Counter& Counter::Get(std::string_view name) {
  return Registry::Instance().GetCounter(name);
}

CounterCell* Counter::NewCellLocked() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back(std::make_unique<CounterCell>());
  return cells_.back().get();
}

void Counter::Add(std::int64_t delta) {
  const auto id = static_cast<std::size_t>(id_);
  if (id >= tls_counter_cells.size()) {
    tls_counter_cells.resize(id + 1, nullptr);
  }
  CounterCell*& cell = tls_counter_cells[id];
  if (cell == nullptr) cell = NewCellLocked();
  cell->value.fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t Counter::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell->value.load(std::memory_order_relaxed);
  }
  return total;
}

// ---- Gauge ------------------------------------------------------------------

struct Gauge::Impl {
  std::atomic<double> value{0.0};
};

Gauge::Gauge(std::string name)
    : name_(std::move(name)), impl_(std::make_unique<Impl>()) {}

Gauge& Gauge::Get(std::string_view name) {
  return Registry::Instance().GetGauge(name);
}

void Gauge::Set(double value) {
  impl_->value.store(value, std::memory_order_relaxed);
}

void Gauge::SetMax(double value) {
  double current = impl_->value.load(std::memory_order_relaxed);
  while (value > current &&
         !impl_->value.compare_exchange_weak(current, value,
                                             std::memory_order_relaxed)) {
  }
}

double Gauge::Value() const {
  return impl_->value.load(std::memory_order_relaxed);
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::string name, int id, std::vector<double> bounds)
    : name_(std::move(name)), id_(id), bounds_(std::move(bounds)) {}

Histogram& Histogram::Get(std::string_view name,
                          std::span<const double> bounds) {
  return Registry::Instance().GetHistogram(name, bounds);
}

HistogramCell* Histogram::NewCellLocked() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back(std::make_unique<HistogramCell>(bounds_.size() + 1));
  return cells_.back().get();
}

void Histogram::Observe(double value) {
  const auto id = static_cast<std::size_t>(id_);
  if (id >= tls_histogram_cells.size()) {
    tls_histogram_cells.resize(id + 1, nullptr);
  }
  HistogramCell*& cell = tls_histogram_cells[id];
  if (cell == nullptr) cell = NewCellLocked();
  const std::size_t bucket =
      static_cast<std::size_t>(
          std::lower_bound(bounds_.begin(), bounds_.end(), value) -
          bounds_.begin());
  cell->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cell->count.fetch_add(1, std::memory_order_relaxed);
  cell->sum.fetch_add(value, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.buckets.assign(bounds_.size() + 1, 0);
  for (const auto& cell : cells_) {
    for (std::size_t b = 0; b < cell->buckets.size(); ++b) {
      snapshot.buckets[b] += cell->buckets[b].load(std::memory_order_relaxed);
    }
    snapshot.count += cell->count.load(std::memory_order_relaxed);
    snapshot.sum += cell->sum.load(std::memory_order_relaxed);
  }
  return snapshot;
}

// ---- Registry-wide operations -----------------------------------------------

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    std::lock_guard<std::mutex> cell_lock(counter->mu_);
    for (auto& cell : counter->cells_) {
      cell->value.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& [name, gauge] : gauges_) gauge->Set(0.0);
  for (auto& [name, histogram] : histograms_) {
    std::lock_guard<std::mutex> cell_lock(histogram->mu_);
    for (auto& cell : histogram->cells_) {
      for (auto& bucket : cell->buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      cell->count.store(0, std::memory_order_relaxed);
      cell->sum.store(0.0, std::memory_order_relaxed);
    }
  }
}

MetricsSnapshot SnapshotMetrics() { return Registry::Instance().Snapshot(); }

void ResetMetricsForTest() { Registry::Instance().Reset(); }

void RegisterStandardMetrics() {
  static constexpr const char* kCounters[] = {
      "faults/degraded_evals",
      "faults/injected",
      "faults/injected_invalid",
      "faults/injected_nan",
      "faults/injected_timeout",
      "faults/recovered",
      "faults/retries",
      "faults/retry_exhausted",
      "hwsim/link_bound_evals",
      "hwsim/oom_rejections",
      "hwsim/simulations",
      "hwsim/static_invalid",
      "pipeline/checkpoints",
      "pipeline/resumes",
      "pipeline/state_loads",
      "pipeline/state_saves",
      "pipeline/validate_cells",
      "rl/episodes",
      "rl/invalid_episodes",
      "rl/minibatches",
      "rl/policy_updates",
      "runtime/parallel_fors",
      "runtime/parallel_iterations",
      "runtime/tasks_executed",
      "runtime/tasks_submitted",
      "search/hillclimb_proposals",
      "search/random_samples",
      "search/sa_proposals",
      "service/admitted",
      "service/cache_evictions",
      "service/cache_hits",
      "service/cache_misses",
      "service/completed",
      "service/connections",
      "service/drained",
      "service/executed",
      "service/protocol_errors",
      "service/rejected",
      "service/requests",
      "solver/backtracks",
      "solver/degraded_solves",
      "solver/fix_already_feasible",
      "solver/fix_repaired",
      "solver/fix_solves",
      "solver/probe_accepted",
      "solver/probe_proposals",
      "solver/propagations",
      "solver/sample_solves",
      "solver/set_domain_calls",
      "solver/solve_failures",
  };
  for (const char* name : kCounters) Counter::Get(name);
  Gauge::Get("hwsim/max_chip_peak_memory_bytes");
}

}  // namespace mcm::telemetry
