// The benchmark's own statistics and timing rules, kept free of any
// dependency on the partitioner so logic_test.cc can check them on
// synthetic data.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Linear interpolation between order statistics; `sorted` ascending.
inline double Quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

inline double Percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return Quantile(xs, p);
}

inline double Median(std::vector<double> xs) {
  return Percentile(std::move(xs), 0.5);
}

// A tail percentile is reported only when at least this many samples lie
// beyond it; fewer and the tail is one or two slow outliers.
inline constexpr std::size_t kSamplesBeyondTail = 10;

// Number of samples of `n` that lie strictly beyond quantile `p`.
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - p) + 1e-9));
}

// True when `n` samples support reporting quantile `p`.
inline bool SupportsPercentile(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= kSamplesBeyondTail;
}

struct Tail {
  double level = 1.0;  // Quantile reported; 1.0 means the maximum.
  double value = 0.0;
  std::string label;   // "p99", "p90", ... or "max".
};

// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 with at least
// kSamplesBeyondTail samples beyond it.  With fewer than 20 samples no
// percentile qualifies and the maximum is reported, labelled "max".
inline Tail HighestSupportedTail(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  static const std::pair<double, const char*> kLevels[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
      {0.90, "p90"},    {0.75, "p75"}, {0.50, "p50"}};
  for (const auto& [level, label] : kLevels) {
    if (SupportsPercentile(xs.size(), level)) {
      return Tail{level, Quantile(xs, level), label};
    }
  }
  return Tail{1.0, xs.empty() ? 0.0 : xs.back(), "max"};
}

// ---- Open-loop load ---------------------------------------------------------

// Send times of an open-loop schedule: `count` requests evenly spaced at
// `rate_per_s`, starting at `start_s`.
inline std::vector<double> EvenSchedule(double start_s, double rate_per_s,
                                        std::size_t count) {
  std::vector<double> times(count);
  for (std::size_t i = 0; i < count; ++i) {
    times[i] = start_s + static_cast<double>(i) / rate_per_s;
  }
  return times;
}

// One open-loop request as the generator saw it.
struct RequestTiming {
  double scheduled_s = 0.0;  // When the schedule said to send it.
  double sent_s = 0.0;       // When the generator actually sent it.
  double done_s = 0.0;       // When its response arrived.
  bool ok = false;           // False: rejected, errored or never answered.
};

// Latency counts from the scheduled send time, so a generator or server
// stall charges every request that should have gone out during it.
inline double LatencyFromSchedule(const RequestTiming& t) {
  return t.done_s - t.scheduled_s;
}

// How late the generator sent a request.
inline double GeneratorLag(const RequestTiming& t) {
  return t.sent_s - t.scheduled_s;
}

// Requests scheduled by `t_s` and not yet answered at `t_s`.
inline std::size_t BacklogAt(const std::vector<RequestTiming>& timings,
                             double t_s) {
  std::size_t backlog = 0;
  for (const RequestTiming& r : timings) {
    if (r.scheduled_s <= t_s && !(r.ok && r.done_s <= t_s)) ++backlog;
  }
  return backlog;
}

// A backlog grows when the server completes less than it is offered: the
// number outstanding at the end of the schedule exceeds the number
// outstanding half-way through by more than a small slack.  A steady queue
// of any depth reads the same at both instants; a growing one does not.
inline bool BacklogGrows(const std::vector<RequestTiming>& timings) {
  if (timings.size() < 4) return false;
  double first = timings.front().scheduled_s;
  double last = timings.front().scheduled_s;
  for (const RequestTiming& r : timings) {
    first = std::min(first, r.scheduled_s);
    last = std::max(last, r.scheduled_s);
  }
  const std::size_t mid = BacklogAt(timings, 0.5 * (first + last));
  const std::size_t end = BacklogAt(timings, last);
  const std::size_t slack =
      std::max<std::size_t>(4, timings.size() / 50);
  return end > mid + slack;
}

// Rate ladder: rung k offers base * kLadderStep^k requests per second.
inline constexpr double kLadderStep = 1.05;

inline double LadderRate(double base_rate, int rung) {
  return base_rate * std::pow(kLadderStep, rung);
}

// Highest rung in [0, num_rungs) for which `passes` holds, assuming passing
// is monotone (a rate that fails makes every higher rate fail); -1 when
// even rung 0 fails.  Bisection probes O(log num_rungs) rungs.
inline int HighestPassingRung(int num_rungs,
                              const std::function<bool(int)>& passes) {
  int lo = -1;         // Highest rung known to pass.
  int hi = num_rungs;  // Lowest rung known to fail.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  int thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct LayerTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

// Self time of a span: its duration minus the part its direct children on
// the same thread cover.  Spans on one thread nest (a child starts and ends
// inside its parent), as scoped timers produce.  Returns totals per name.
inline std::map<std::string, LayerTotals> FoldSpans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_s != b.start_s) return a.start_s < b.start_s;
    return a.end_s > b.end_s;  // Parent before a child sharing its start.
  });
  std::vector<double> child_time(spans.size(), 0.0);
  std::vector<std::size_t> open;  // Stack of enclosing spans.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!open.empty() &&
           (spans[open.back()].thread != spans[i].thread ||
            spans[open.back()].end_s <= spans[i].start_s)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_time[open.back()] += spans[i].end_s - spans[i].start_s;
    }
    open.push_back(i);
  }
  std::map<std::string, LayerTotals> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& layer = layers[spans[i].name];
    const double duration = spans[i].end_s - spans[i].start_s;
    ++layer.count;
    layer.total_s += duration;
    layer.self_s += duration - child_time[i];
    layer.durations_s.push_back(duration);
  }
  return layers;
}

// Wall time of [begin_s, end_s) that `thread`'s spans cover (union of
// intervals); the rest of that thread's wall time is unattributed.
inline double CoveredSeconds(const std::vector<Span>& spans, int thread,
                             double begin_s, double end_s) {
  std::vector<std::pair<double, double>> intervals;
  for (const Span& s : spans) {
    if (s.thread != thread) continue;
    const double a = std::max(s.start_s, begin_s);
    const double b = std::min(s.end_s, end_s);
    if (b > a) intervals.emplace_back(a, b);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = begin_s;
  for (const auto& [a, b] : intervals) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return covered;
}

}  // namespace perfbench
