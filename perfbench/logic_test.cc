// Checks the benchmark's statistics and timing rules on synthetic data.
// Exits non-zero on the first failed check; run.py runs it after building.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "logic.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> xs;
  for (int i = 1; i <= n; ++i) xs.push_back(i);
  return xs;
}

void TestPercentileRule() {
  using perfbench::HighestSupportedTail;
  Check(perfbench::SupportsPercentile(100, 0.90), "100 samples support p90");
  Check(!perfbench::SupportsPercentile(99, 0.90), "99 samples do not support p90");
  Check(perfbench::SupportsPercentile(1000, 0.99), "1000 samples support p99");
  Check(!perfbench::SupportsPercentile(999, 0.99), "999 samples do not support p99");
  Check(HighestSupportedTail(Ramp(100)).label == "p90", "100 samples -> p90");
  Check(HighestSupportedTail(Ramp(1000)).label == "p99", "1000 samples -> p99");
  Check(HighestSupportedTail(Ramp(999)).label == "p95", "999 samples -> p95");
  Check(HighestSupportedTail(Ramp(20)).label == "p50", "20 samples -> p50");
  const perfbench::Tail few = HighestSupportedTail({3.0, 1.0, 2.0});
  Check(few.label == "max" && Near(few.value, 3.0), "few samples -> max");
  Check(Near(HighestSupportedTail(Ramp(100)).value, 90.1),
        "p90 interpolates between order statistics");
}

void TestLatencyFromSchedule() {
  // The generator ran 30 ms late; the server answered 5 ms after the send.
  perfbench::RequestTiming t{1.000, 1.030, 1.035, true};
  Check(Near(perfbench::LatencyFromSchedule(t), 0.035),
        "latency counts from the scheduled send, not the actual send");
  Check(Near(perfbench::GeneratorLag(t), 0.030), "lag is send - schedule");
  const std::vector<double> schedule = perfbench::EvenSchedule(2.0, 4.0, 3);
  Check(Near(schedule[0], 2.0) && Near(schedule[2], 2.5),
        "even schedule spaces sends by 1/rate");
}

void TestBacklogGrowth() {
  using perfbench::RequestTiming;
  // Service keeps up: every request takes 10 ms at 100 req/s.
  std::vector<RequestTiming> steady;
  for (int i = 0; i < 400; ++i) {
    const double s = i * 0.01;
    steady.push_back({s, s, s + 0.010, true});
  }
  Check(!perfbench::BacklogGrows(steady), "steady service has no growing backlog");
  // A deep but stable queue (every request 300 ms) is not growth either.
  std::vector<RequestTiming> deep;
  for (int i = 0; i < 400; ++i) {
    const double s = i * 0.01;
    deep.push_back({s, s, s + 0.300, true});
  }
  Check(!perfbench::BacklogGrows(deep), "a stable deep queue is not growth");
  // Service at 80 req/s against 100 req/s offered: completions fall behind.
  std::vector<RequestTiming> overload;
  for (int i = 0; i < 400; ++i) {
    const double s = i * 0.01;
    overload.push_back({s, s, (i + 1) * 0.0125, true});
  }
  Check(perfbench::BacklogGrows(overload), "overload grows the backlog");
  // Requests that never succeed stay outstanding.
  std::vector<RequestTiming> failing = steady;
  for (std::size_t i = failing.size() / 2; i < failing.size(); ++i) {
    failing[i].ok = false;
  }
  Check(perfbench::BacklogGrows(failing), "failed requests count as backlog");
}

void TestLadder() {
  int probes = 0;
  const int best = perfbench::HighestPassingRung(40, [&](int rung) {
    ++probes;
    return rung <= 17;
  });
  Check(best == 17, "ladder finds the highest passing rung");
  Check(probes <= 6, "ladder bisects");
  Check(perfbench::HighestPassingRung(10, [](int) { return false; }) == -1,
        "ladder reports -1 when nothing passes");
  Check(perfbench::HighestPassingRung(10, [](int) { return true; }) == 9,
        "ladder tops out at the last rung");
  Check(Near(perfbench::LadderRate(100.0, 2), 110.25), "ladder steps 5%");
}

void TestSelfTime() {
  using perfbench::Span;
  // Thread 0: update [0,10) holds loss [1,4) and backward [4,9); backward
  // holds adam [8,9) (nested two deep).  Thread 1: a collect task [2,6)
  // overlapping in time but on another thread, so it is not a child.
  const std::vector<Span> spans = {
      {"update", 0, 0.0, 10.0}, {"loss", 0, 1.0, 4.0},
      {"backward", 0, 4.0, 9.0}, {"adam", 0, 8.0, 9.0},
      {"collect", 1, 2.0, 6.0}};
  auto layers = perfbench::FoldSpans(spans);
  Check(Near(layers["update"].self_s, 2.0), "parent self time excludes children");
  Check(Near(layers["backward"].self_s, 4.0), "grandchild subtracts from its parent only");
  Check(Near(layers["adam"].self_s, 1.0), "leaf self time is its duration");
  Check(Near(layers["collect"].self_s, 4.0), "other threads' spans are not children");
  Check(layers["loss"].count == 1, "counts calls");
  Check(Near(perfbench::CoveredSeconds(spans, 0, 0.0, 12.0), 10.0),
        "coverage is the union of a thread's spans");
  // Back-to-back siblings sharing an edge must not nest.
  auto siblings = perfbench::FoldSpans({{"a", 0, 0.0, 1.0}, {"b", 0, 1.0, 2.0}});
  Check(Near(siblings["a"].self_s, 1.0) && Near(siblings["b"].self_s, 1.0),
        "adjacent spans are siblings");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestLatencyFromSchedule();
  TestBacklogGrowth();
  TestLadder();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench logic: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
