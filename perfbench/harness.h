// Shared machinery of the benchmark driver: options, the result line,
// the benchmark's own spans, metric-counter windows and provenance.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "logic.h"
#include "nn/matrix.h"
#include "partition/partition.h"
#include "telemetry/metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string revision = "unknown";  // Source revision, for provenance.
};

// The single JSON line the driver reads, plus what led to it.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Records a failed output check; the run then reports correct=false.
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool correct() const { return problems_.empty(); }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Prints the problems (stderr) and the result line (last line of stdout).
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> problems_;
};

// Seconds on the steady clock shared with the library's telemetry.
double Now();

// Online CPUs: every workload's busy-thread budget.
int Nproc();

// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

// Runs `setup` `times` times and returns the median wall time; the state
// the last call built is what the run measures.
double MedianSetupSeconds(int times, const std::function<void()>& setup);

// ---- Spans ------------------------------------------------------------------

// Turns the benchmark's span recording on (traced runs only); the calling
// thread becomes thread 0, the main thread of coverage accounting.
// Recording is off by default and ScopedSpan then reads no clock.
void EnableSpans(bool enabled);
bool SpansEnabled();
// All spans recorded so far.
std::vector<Span> TakeSpans();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  double start_s_ = 0.0;
  bool armed_ = false;
};

// Prints one line per span name (calls, busy seconds summed over threads,
// p50) and the part of [begin_s, end_s) on the main thread that no span
// covers, as `unattributed`.  Returns the covered fraction.
double PrintLayerTable(const std::vector<Span>& spans, double begin_s,
                       double end_s);

// p50 in milliseconds of the durations recorded under `name` (0 if none).
double SpanP50Ms(const std::vector<Span>& spans, const std::string& name);
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name);

// ---- Library counters ---------------------------------------------------------

// Differences of the library's metrics between construction and Close().
class MetricsWindow {
 public:
  MetricsWindow();
  void Close();
  std::int64_t Count(const std::string& counter) const;
  // Ratio of two counter deltas; 0 when the denominator is 0.
  double Ratio(const std::string& num, const std::string& den) const;
  // Quantile of a histogram's delta, interpolated within its bucket.
  double HistogramQuantile(const std::string& histogram, double p) const;
  double HistogramMean(const std::string& histogram) const;
  std::int64_t HistogramCount(const std::string& histogram) const;

 private:
  mcm::telemetry::MetricsSnapshot before_;
  mcm::telemetry::MetricsSnapshot after_;
};

// ---- Provenance ---------------------------------------------------------------

// Prints one `# provenance {...}` line: host cores, thread settings, build
// flags, source revision and seed.
void PrintProvenance(const Options& options, int worker_threads,
                     int nn_threads, const std::string& notes);

// Bitwise equality, for checking that a replay reproduced a run.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);
bool SameBits(const std::vector<mcm::Matrix>& a,
              const std::vector<mcm::Matrix>& b);

// Output check shared by all workloads: the placement satisfies every
// static constraint of the partition module.
bool StaticallyValid(const mcm::Graph& graph, const mcm::Partition& partition);

}  // namespace perfbench
