// Ablation (Table 1 / Section 5.1): RL *without* the constraint solver.
// Candidates go straight to evaluation and invalid partitions earn zero
// reward; the paper reports this baseline never finds a valid partition
// because valid solutions are ultra-sparse under the MCM constraints.
//
// This bench also measures that sparsity directly: the fraction of
// uniformly random assignments that are statically valid.
#include <cstdio>

#include "common/env.h"
#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "rl/env.h"
#include "search/search.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  mcm::bench::InitBenchRuntime(argc, argv);
  using namespace mcm;
  mcm::telemetry::RunReport report =
      mcm::bench::MakeBenchReport("ablation_no_solver");
  mcm::telemetry::PhaseTimer phase_timer(report, "ablation");
  const int budget = static_cast<int>(ScaledInt("MCM_ABLATION_BUDGET", 80, 1000));
  std::printf("=== Ablation: RL with vs without the constraint solver ===\n");

  const DatasetSplit split = SplitCorpus(MakeCorpus());
  const Graph& graph = split.test.front();
  std::printf("graph: %s (%d nodes, 36 chips)\n", graph.name().c_str(),
              graph.NumNodes());

  // Density of valid assignments under uniform sampling (no solver).
  {
    Rng rng(3);
    const int trials = 200000;
    int valid = 0;
    Partition p = Partition::Empty(graph.NumNodes(), 36);
    for (int t = 0; t < trials; ++t) {
      for (int& chip : p.assignment) {
        chip = static_cast<int>(rng.UniformInt(36));
      }
      if (IsStaticallyValid(graph, p)) ++valid;
    }
    std::printf("statically valid fraction of uniform assignments: %d / %d "
                "(%.5f%%)\n", valid, trials, 100.0 * valid / trials);
    report.SetValue("uniform_valid_fraction",
                    static_cast<double>(valid) / trials);
  }

  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(graph, 36);
  Rng rng(4);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(graph, model, context.solver(), rng);
  PartitionEnv env(graph, model, baseline.eval.runtime_s);

  // RL without the solver.
  {
    RlConfig config = GetBenchScale() == BenchScale::kFull
                          ? RlConfig{}
                          : RlConfig::Quick();
    config.solver_mode = RlConfig::SolverMode::kNone;
    config.seed = 11;
    PolicyNetwork policy(config);
    RlSearch search(policy, Rng(12), /*zero_shot=*/false, "RL-NoSolver");
    const SearchTrace trace = search.Run(context, env, budget);
    int valid_samples = 0;
    for (double r : trace.rewards) {
      if (r > 0.0) ++valid_samples;
    }
    std::printf("RL without solver: %d/%d valid samples, best improvement "
                "%.3f\n", valid_samples, budget, trace.BestWithin(trace.rewards.size()));
    report.SetValue("no_solver/valid_samples", valid_samples);
    report.SetValue("no_solver/best", trace.BestWithin(trace.rewards.size()));
  }
  // RL with the solver (same budget).
  {
    RlConfig config = GetBenchScale() == BenchScale::kFull
                          ? RlConfig{}
                          : RlConfig::Quick();
    config.seed = 11;
    PolicyNetwork policy(config);
    RlSearch search(policy, Rng(12));
    const SearchTrace trace = search.Run(context, env, budget);
    int valid_samples = 0;
    for (double r : trace.rewards) {
      if (r > 0.0) ++valid_samples;
    }
    std::printf("RL with solver:    %d/%d valid samples, best improvement "
                "%.3f\n", valid_samples, budget, trace.BestWithin(trace.rewards.size()));
    report.SetValue("with_solver/valid_samples", valid_samples);
    report.SetValue("with_solver/best",
                    trace.BestWithin(trace.rewards.size()));
  }
  std::printf("# paper reference: without the solver RL finds no valid "
              "partition even with many samples (Table 1, Section 5.1).\n");
  mcm::bench::WriteBenchReport(report);
  return 0;
}
