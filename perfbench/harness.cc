#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "runtime/thread_pool.h"
#include "telemetry/trace.h"

namespace perfbench {

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& what) { problems_.push_back(what); }

void Result::Print() const {
  for (const std::string& problem : problems_) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 problem.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    if (i > 0) os << ", ";
    os << "\"" << name << "\": {\"value\": "
       << (std::isfinite(value_unit.first) ? value_unit.first : 0.0)
       << ", \"unit\": \"" << value_unit.second << "\"}";
  }
  os << "}}";
  std::fflush(stderr);
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

double Now() { return mcm::telemetry::MonotonicSeconds(); }

int Nproc() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB.
    }
  }
  return 0.0;
}

double MedianSetupSeconds(int times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const double start = Now();
    setup();
    seconds.push_back(Now() - start);
  }
  return Median(seconds);
}

// ---- Spans ------------------------------------------------------------------

namespace {

struct SpanStore {
  std::mutex mu;
  std::vector<Span> spans;  // Guarded by mu.
  std::map<std::thread::id, int> thread_index;  // Guarded by mu.
  std::atomic<bool> enabled{false};
};

SpanStore& Store() {
  static SpanStore store;
  return store;
}

}  // namespace

void EnableSpans(bool enabled) {
  {
    std::lock_guard<std::mutex> lock(Store().mu);
    Store().thread_index.emplace(std::this_thread::get_id(), 0);
  }
  Store().enabled.store(enabled);
}

bool SpansEnabled() { return Store().enabled.load(); }

std::vector<Span> TakeSpans() {
  std::lock_guard<std::mutex> lock(Store().mu);
  return Store().spans;
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (Store().enabled.load(std::memory_order_relaxed)) {
    armed_ = true;
    start_s_ = Now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  const double end_s = Now();
  SpanStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mu);
  const auto [it, inserted] = store.thread_index.emplace(
      std::this_thread::get_id(), static_cast<int>(store.thread_index.size()));
  store.spans.push_back(Span{name_, it->second, start_s_, end_s});
}

std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name) {
  std::vector<double> durations;
  for (const Span& s : spans) {
    if (s.name == name) durations.push_back(s.end_s - s.start_s);
  }
  return durations;
}

double SpanP50Ms(const std::vector<Span>& spans, const std::string& name) {
  const std::vector<double> durations = SpanDurations(spans, name);
  return durations.empty() ? 0.0 : Median(durations) * 1e3;
}

double PrintLayerTable(const std::vector<Span>& spans, double begin_s,
                       double end_s) {
  const auto layers = FoldSpans(spans);
  std::printf("# %-28s %8s %10s %10s\n", "layer", "calls", "busy_s",
              "p50_ms");
  for (const auto& [name, layer] : layers) {
    std::printf("# %-28s %8lld %10.4f %10.4f\n", name.c_str(),
                static_cast<long long>(layer.count), layer.self_s,
                Median(layer.durations_s) * 1e3);
  }
  const double wall = end_s - begin_s;
  const double covered = CoveredSeconds(spans, 0, begin_s, end_s);
  std::printf("# %-28s %8s %10.4f %10s\n", "unattributed", "-",
              wall - covered, "-");
  std::printf("# traced wall %.4f s, named spans cover %.1f%% of it\n", wall,
              wall > 0.0 ? 100.0 * covered / wall : 0.0);
  return wall > 0.0 ? covered / wall : 0.0;
}

// ---- Library counters ---------------------------------------------------------

MetricsWindow::MetricsWindow() : before_(mcm::telemetry::SnapshotMetrics()) {}

void MetricsWindow::Close() { after_ = mcm::telemetry::SnapshotMetrics(); }

namespace {

std::int64_t FindCounter(const mcm::telemetry::MetricsSnapshot& snapshot,
                         const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

const mcm::telemetry::Histogram::Snapshot* FindHistogram(
    const mcm::telemetry::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [key, value] : snapshot.histograms) {
    if (key == name) return &value;
  }
  return nullptr;
}

// Bucket counts of `after` minus `before` (either may be missing).
mcm::telemetry::Histogram::Snapshot HistogramDelta(
    const mcm::telemetry::Histogram::Snapshot* before,
    const mcm::telemetry::Histogram::Snapshot* after) {
  mcm::telemetry::Histogram::Snapshot delta;
  if (after == nullptr) return delta;
  delta = *after;
  if (before != nullptr && before->buckets.size() == delta.buckets.size()) {
    for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
      delta.buckets[i] -= before->buckets[i];
    }
    delta.count -= before->count;
    delta.sum -= before->sum;
  }
  return delta;
}

}  // namespace

std::int64_t MetricsWindow::Count(const std::string& counter) const {
  return FindCounter(after_, counter) - FindCounter(before_, counter);
}

double MetricsWindow::Ratio(const std::string& num,
                            const std::string& den) const {
  const std::int64_t d = Count(den);
  return d == 0 ? 0.0 : static_cast<double>(Count(num)) / d;
}

double MetricsWindow::HistogramQuantile(const std::string& histogram,
                                        double p) const {
  const auto delta = HistogramDelta(FindHistogram(before_, histogram),
                                    FindHistogram(after_, histogram));
  if (delta.count <= 0) return 0.0;
  const double target = p * static_cast<double>(delta.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < delta.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(delta.buckets[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      // Interpolate linearly inside the bucket; the overflow bucket reports
      // its lower edge.
      const double lo = i == 0 ? 0.0 : delta.bounds[i - 1];
      if (i >= delta.bounds.size()) return lo;
      const double hi = delta.bounds[i];
      return lo + (hi - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return delta.bounds.empty() ? 0.0 : delta.bounds.back();
}

double MetricsWindow::HistogramMean(const std::string& histogram) const {
  const auto delta = HistogramDelta(FindHistogram(before_, histogram),
                                    FindHistogram(after_, histogram));
  return delta.count > 0 ? delta.sum / static_cast<double>(delta.count) : 0.0;
}

std::int64_t MetricsWindow::HistogramCount(const std::string& histogram) const {
  return HistogramDelta(FindHistogram(before_, histogram),
                        FindHistogram(after_, histogram))
      .count;
}

// ---- Provenance ---------------------------------------------------------------

void PrintProvenance(const Options& options, int worker_threads,
                     int nn_threads, const std::string& notes) {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool march_native = flags.find("-march=native") != std::string::npos;
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"threads\": %d, \"nn_threads\": %d, \"busy_thread_budget\": %d, "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"march_native\": %s, "
      "\"revision\": \"%s\", \"notes\": \"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), worker_threads, nn_threads,
      Nproc(), PERFBENCH_BUILD_TYPE, flags.c_str(),
      march_native ? "true" : "false", options.revision.c_str(),
      notes.c_str());
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<mcm::Matrix>& a,
              const std::vector<mcm::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows != b[i].rows || a[i].cols != b[i].cols ||
        std::memcmp(a[i].data.data(), b[i].data.data(),
                    a[i].data.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool StaticallyValid(const mcm::Graph& graph,
                     const mcm::Partition& partition) {
  return partition.Complete() &&
         static_cast<int>(partition.assignment.size()) == graph.NumNodes() &&
         mcm::IsStaticallyValid(graph, partition);
}

}  // namespace perfbench
