// Microbenchmarks and acceptance gates for the incremental (delta)
// partition evaluator (costmodel/delta_eval.h).
//
// Beyond the usual google-benchmark timings this binary measures two gate
// metrics directly (stopwatch over fixed work, so they are ratios of
// comparable work on the same machine) and records them under "gate/" in
// BENCH_micro_delta.json, where scripts/bench_compare.py --gate trips on
// regressions:
//
//   gate/delta_over_full_ratio     delta single-move re-score time over a
//                                  full Evaluate on BERT at 36 chips
//                                  (acceptance: <= 0.2, i.e. >= 5x faster)
//   gate/hc_delta_over_full_ratio  HillClimb sweep wall time on BERT with an
//                                  analytical env (moves scored from the
//                                  evaluator) over the same sweep with a
//                                  forwarding model (full evaluations)
//
// Every comparison also asserts bit-identical results between the two
// paths, so the gate doubles as an end-to-end identity check at full scale.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "micro_common.h"

#include "common/logging.h"
#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "costmodel/delta_eval.h"
#include "graph/generators.h"
#include "search/search.h"
#include "solver/modes.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

struct Prepared {
  Graph graph;
  Partition partition;
  // Single-node moves off `partition`: statically valid ones and ones the
  // evaluator must reject, both discovered with the evaluator itself.
  std::vector<std::pair<int, int>> valid_moves;    // (node, to_chip)
  std::vector<std::pair<int, int>> invalid_moves;  // (node, to_chip)
};

constexpr int kChips = 36;

const Prepared& BertCase() {
  static const auto* prepared = [] {
    auto* out = new Prepared;
    out->graph = MakeBert();
    CpSolver solver(out->graph, kChips);
    const ProbMatrix probs = ProbMatrix::Uniform(out->graph.NumNodes(), kChips);
    Rng rng(9);
    SolveResult solved =
        SolveSampleWithRestarts(solver, out->graph, probs, rng);
    MCM_CHECK(solved.success);
    out->partition = std::move(solved.partition);

    DeltaEvaluator probe(out->graph, McmConfig{});
    probe.Rebase(out->partition);
    Rng move_rng(11);
    for (int attempt = 0;
         attempt < 500000 &&
         (out->valid_moves.size() < 64 || out->invalid_moves.size() < 64);
         ++attempt) {
      const int node = static_cast<int>(
          move_rng.UniformInt(static_cast<std::uint64_t>(out->graph.NumNodes())));
      int chip = static_cast<int>(move_rng.UniformInt(kChips - 1));
      if (chip >= out->partition.chip(node)) ++chip;
      probe.Apply(node, chip);
      const bool valid = probe.StaticallyValid();
      probe.Undo();
      auto& bucket = valid ? out->valid_moves : out->invalid_moves;
      if (bucket.size() < 64) bucket.emplace_back(node, chip);
    }
    MCM_CHECK(!out->valid_moves.empty());
    MCM_CHECK(!out->invalid_moves.empty());
    return out;
  }();
  return *prepared;
}

void BM_FullEvaluate(benchmark::State& state) {
  const Prepared& prepared = BertCase();
  AnalyticalCostModel model{McmConfig{}};
  Partition candidate = prepared.partition;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, chip] = prepared.valid_moves[i];
    i = (i + 1) % prepared.valid_moves.size();
    const int prev = candidate.chip(node);
    candidate.assignment[static_cast<std::size_t>(node)] = chip;
    benchmark::DoNotOptimize(
        model.Evaluate(prepared.graph, candidate).runtime_s);
    candidate.assignment[static_cast<std::size_t>(node)] = prev;
  }
  state.counters["nodes"] = prepared.graph.NumNodes();
}
BENCHMARK(BM_FullEvaluate)->Unit(benchmark::kMicrosecond);

void BM_DeltaSingleMoveRescore(benchmark::State& state) {
  const Prepared& prepared = BertCase();
  DeltaEvaluator evaluator(prepared.graph, McmConfig{});
  evaluator.Rebase(prepared.partition);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, chip] = prepared.valid_moves[i];
    i = (i + 1) % prepared.valid_moves.size();
    evaluator.Apply(node, chip);
    benchmark::DoNotOptimize(evaluator.Score().runtime_s);
    evaluator.Undo();
  }
  state.counters["nodes"] = prepared.graph.NumNodes();
}
BENCHMARK(BM_DeltaSingleMoveRescore)->Unit(benchmark::kMicrosecond);

void BM_DeltaInvalidReject(benchmark::State& state) {
  const Prepared& prepared = BertCase();
  DeltaEvaluator evaluator(prepared.graph, McmConfig{});
  evaluator.Rebase(prepared.partition);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [node, chip] = prepared.invalid_moves[i];
    i = (i + 1) % prepared.invalid_moves.size();
    evaluator.Apply(node, chip);
    benchmark::DoNotOptimize(evaluator.StaticallyValid());
    evaluator.Undo();
  }
}
BENCHMARK(BM_DeltaInvalidReject)->Unit(benchmark::kMicrosecond);

void BM_DeltaRebase(benchmark::State& state) {
  const Prepared& prepared = BertCase();
  DeltaEvaluator evaluator(prepared.graph, McmConfig{});
  for (auto _ : state) {
    evaluator.Rebase(prepared.partition);
    benchmark::DoNotOptimize(evaluator.StaticallyValid());
  }
}
BENCHMARK(BM_DeltaRebase)->Unit(benchmark::kMicrosecond);

// --- Gate measurements -----------------------------------------------------

// Times `reps` passes over the valid single-move candidates on both paths,
// asserting bit-identical scores, and returns delta_time / full_time.
double MeasureSingleMoveRatio(telemetry::RunReport& report) {
  const Prepared& prepared = BertCase();
  AnalyticalCostModel model{McmConfig{}};
  DeltaEvaluator evaluator(prepared.graph, McmConfig{});
  evaluator.Rebase(prepared.partition);
  const int reps = 40;

  // Warm both paths once and check identity per candidate.
  Partition candidate = prepared.partition;
  for (const auto& [node, chip] : prepared.valid_moves) {
    const int prev = candidate.chip(node);
    candidate.assignment[static_cast<std::size_t>(node)] = chip;
    const EvalResult full = model.Evaluate(prepared.graph, candidate);
    evaluator.Apply(node, chip);
    const EvalResult delta = evaluator.Score();
    evaluator.Undo();
    candidate.assignment[static_cast<std::size_t>(node)] = prev;
    MCM_CHECK(full.valid == delta.valid);
    MCM_CHECK(full.runtime_s == delta.runtime_s);
    MCM_CHECK(full.latency_s == delta.latency_s);
  }

  const double full_start = telemetry::MonotonicSeconds();
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const auto& [node, chip] : prepared.valid_moves) {
      const int prev = candidate.chip(node);
      candidate.assignment[static_cast<std::size_t>(node)] = chip;
      sink += model.Evaluate(prepared.graph, candidate).runtime_s;
      candidate.assignment[static_cast<std::size_t>(node)] = prev;
    }
  }
  const double full_s = telemetry::MonotonicSeconds() - full_start;

  const double delta_start = telemetry::MonotonicSeconds();
  double delta_sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const auto& [node, chip] : prepared.valid_moves) {
      evaluator.Apply(node, chip);
      delta_sink += evaluator.Score().runtime_s;
      evaluator.Undo();
    }
  }
  const double delta_s = telemetry::MonotonicSeconds() - delta_start;
  MCM_CHECK(sink == delta_sink);

  const double ratio = delta_s / full_s;
  const double per =
      static_cast<double>(reps) *
      static_cast<double>(prepared.valid_moves.size());
  report.AddPhaseSeconds("gate_full_rescore", full_s);
  report.AddPhaseSeconds("gate_delta_rescore", delta_s);
  report.SetValue("gate/delta_over_full_ratio", ratio);
  std::printf("# gate: single-move re-score on %s (%d nodes, %d chips): "
              "full %.3f us, delta %.3f us -> %.1fx speedup\n",
              prepared.graph.name().c_str(), prepared.graph.NumNodes(), kChips,
              full_s * 1e6 / per, delta_s * 1e6 / per, 1.0 / ratio);
  return ratio;
}

// Evaluates exactly like the AnalyticalCostModel it wraps without being
// one, so an env over it scores every partition by full evaluation.
class ForwardingModel final : public CostModel {
 public:
  explicit ForwardingModel(AnalyticalCostModel& inner) : inner_(&inner) {}
  EvalResult Evaluate(const Graph& graph,
                      const Partition& partition) override {
    return inner_->Evaluate(graph, partition);
  }
  std::string name() const override { return inner_->name(); }

 private:
  AnalyticalCostModel* inner_;
};

// Runs the same HillClimb sweep on an analytical env and on a forwarding
// env, asserting identical traces and incumbents, and records the wall
// times and their ratio.
void MeasureHillClimbRatio(telemetry::RunReport& report, const Graph& graph,
                           int budget) {
  AnalyticalCostModel analytical{McmConfig{}};
  ForwardingModel forwarding(analytical);
  CpSolver baseline_solver(graph, kChips);
  Rng baseline_rng(7);
  const BaselineResult baseline = ComputeHeuristicBaseline(
      graph, analytical, baseline_solver, baseline_rng);
  MCM_CHECK(baseline.eval.valid);

  CostModel* models[2] = {&forwarding, &analytical};
  SearchTrace traces[2];
  double elapsed[2] = {0.0, 0.0};
  Partition bests[2];
  double best_rewards[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    GraphContext context(graph, kChips);
    PartitionEnv env(graph, *models[i], baseline.eval.runtime_s);
    HillClimbSearch search{Rng(9)};
    const double start = telemetry::MonotonicSeconds();
    traces[i] = search.Run(context, env, budget);
    elapsed[i] = telemetry::MonotonicSeconds() - start;
    if (env.has_best()) {
      bests[i] = env.best_partition();
      best_rewards[i] = env.best_reward();
    }
  }
  MCM_CHECK(traces[0].rewards == traces[1].rewards);
  MCM_CHECK(best_rewards[0] == best_rewards[1]);
  MCM_CHECK(bests[0].assignment == bests[1].assignment);

  // Clamp the denominator so a freakishly fast full run cannot turn the
  // gate metric into inf/NaN.
  const double ratio = elapsed[1] / std::max(elapsed[0], 1e-6);
  report.AddPhaseSeconds("hc_full", elapsed[0]);
  report.AddPhaseSeconds("hc_delta", elapsed[1]);
  report.SetValue("gate/hc_delta_over_full_ratio", ratio);
  std::printf("# gate: hc sweep on %s (budget %d): full %.3f s, delta "
              "%.3f s (identical traces and best partitions)\n",
              graph.name().c_str(), budget, elapsed[0], elapsed[1]);
}

int RunMicroDelta(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  bench::InitBenchRuntime(argc, argv);
  telemetry::RunReport report = bench::MakeBenchReport("micro_delta");
  bench::ReportingReporter reporter(report);
  {
    telemetry::PhaseTimer timer(report, "benchmarks");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  MeasureSingleMoveRatio(report);
  // HillClimb re-scores single-node moves, the delta evaluator's home turf:
  // BERT at 36 chips makes the full-walk cost visible.
  MeasureHillClimbRatio(report, BertCase().graph, /*budget=*/4000);
  bench::WriteBenchReport(report);
  return 0;
}

}  // namespace
}  // namespace mcm

int main(int argc, char** argv) { return mcm::RunMicroDelta(argc, argv); }
