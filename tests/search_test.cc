// Tests for the search strategies and their traces.
#include <gtest/gtest.h>

#include <cstdint>

#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "rl/env.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "solver/modes.h"
#include "telemetry/metrics.h"

namespace mcm {
namespace {

struct Fixture {
  std::vector<Graph> corpus = MakeCorpus();
  const Graph& graph() { return corpus[30]; }
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context{graph(), 36};
  double baseline_runtime;
  PartitionEnv env;

  Fixture()
      : baseline_runtime([this] {
          Rng rng(1);
          return ComputeHeuristicBaseline(graph(), model, context.solver(),
                                          rng)
              .eval.runtime_s;
        }()),
        env(graph(), model, baseline_runtime) {}
};

TEST(SearchTraceTest, BestSoFarAndThresholds) {
  SearchTrace trace;
  trace.rewards = {0.5, 0.2, 1.1, 0.9, 1.4};
  EXPECT_DOUBLE_EQ(trace.BestWithin(2), 0.5);
  EXPECT_DOUBLE_EQ(trace.BestWithin(3), 1.1);
  EXPECT_DOUBLE_EQ(trace.BestWithin(100), 1.4);
  const std::vector<double> curve = trace.BestSoFar();
  EXPECT_EQ(curve, (std::vector<double>{0.5, 0.5, 1.1, 1.1, 1.4}));
  EXPECT_EQ(trace.SamplesToReach(1.0).value(), 3u);
  EXPECT_EQ(trace.SamplesToReach(1.4).value(), 5u);
  EXPECT_FALSE(trace.SamplesToReach(2.0).has_value());
}

TEST(RandomSearchTest, ProducesValidRewardsAndExactBudget) {
  Fixture f;
  RandomSearch search{Rng(2)};
  const SearchTrace trace = search.Run(f.context, f.env, 40);
  EXPECT_EQ(trace.rewards.size(), 40u);
  EXPECT_EQ(trace.strategy, "Random");
  int positive = 0;
  for (double r : trace.rewards) {
    EXPECT_GE(r, 0.0);
    if (r > 0.0) ++positive;
  }
  // The analytical model enforces no dynamic constraint, so nearly every
  // solver-corrected sample earns a positive reward.
  EXPECT_GE(positive, 38);
}

TEST(RandomSearchTest, DeterministicPerSeed) {
  Fixture f1, f2;
  RandomSearch s1{Rng(3)}, s2{Rng(3)};
  const SearchTrace t1 = s1.Run(f1.context, f1.env, 10);
  const SearchTrace t2 = s2.Run(f2.context, f2.env, 10);
  EXPECT_EQ(t1.rewards, t2.rewards);
}

// A request deadline reaches the solver as a propagation budget on the
// context's solver.  RandomSearch and PPO collection repair on private
// per-task solvers, which must carry the same budget: with one no BERT
// solve can meet, every one of their solves degrades.
TEST(DeadlineBudgetTest, PrivateSolversKeepTheContextBudget) {
  const Graph bert = MakeBert();
  CpSolver::Options options;
  options.propagation_budget = 1;
  GraphContext context(bert, 36, options);
  AnalyticalCostModel model{McmConfig{}};
  PartitionEnv env(bert, model, /*baseline_runtime_s=*/1e-3);
  telemetry::Counter& degraded =
      telemetry::Counter::Get("solver/degraded_solves");

  std::int64_t before = degraded.Value();
  RandomSearch random{Rng(3)};
  random.Run(context, env, 4);
  EXPECT_EQ(degraded.Value() - before, 4);

  before = degraded.Value();
  RlConfig config = RlConfig::Quick();
  config.hidden_dim = 16;
  config.gnn_layers = 2;
  PolicyNetwork policy(config);
  PpoTrainer trainer(policy, Rng(4));
  trainer.EvaluateOnly(context, env, 4);
  EXPECT_EQ(degraded.Value() - before, 4);
}

TEST(SimulatedAnnealingTest, RunsAndImprovesOverFirstSample) {
  Fixture f;
  SimulatedAnnealing search{Rng(4)};
  const SearchTrace trace = search.Run(f.context, f.env, 60);
  EXPECT_EQ(trace.rewards.size(), 60u);
  EXPECT_GE(trace.BestWithin(60), trace.rewards.front());
}

TEST(RlSearchTest, TracksBudgetAndImproves) {
  Fixture f;
  RlConfig config = RlConfig::Quick();
  config.rollouts_per_update = 10;
  config.seed = 7;
  PolicyNetwork policy(config);
  RlSearch search(policy, Rng(5));
  const SearchTrace trace = search.Run(f.context, f.env, 30);
  EXPECT_EQ(trace.rewards.size(), 30u);
  EXPECT_EQ(trace.strategy, "RL");
}

TEST(RlSearchTest, ZeroShotDoesNotTrain) {
  Fixture f;
  RlConfig config = RlConfig::Quick();
  config.rollouts_per_update = 5;
  config.seed = 8;
  PolicyNetwork policy(config);
  const std::vector<Matrix> before = SnapshotParams(policy.Params());
  RlSearch search(policy, Rng(6), /*zero_shot=*/true, "RL Zeroshot");
  const SearchTrace trace = search.Run(f.context, f.env, 15);
  EXPECT_EQ(trace.rewards.size(), 15u);
  EXPECT_EQ(trace.strategy, "RL Zeroshot");
  const std::vector<Matrix> after = SnapshotParams(policy.Params());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].data, after[i].data);
  }
}

struct LocalSearchRun {
  std::vector<double> rewards;  // HillClimb trace.
  Partition probed;             // ProbeSingleNodeMoves result.
  double best_reward = 0.0;
  Partition best;
  std::int64_t evaluations = 0;
};

// HillClimb, then ProbeSingleNodeMoves from the baseline through
// env.Reward, on one analytical env at `threads` worker threads.
LocalSearchRun RunLocalSearch(const Graph& graph,
                              PartitionEnv::Objective objective, int threads,
                              int budget) {
  SetDefaultThreadCount(threads);
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(graph, 36);
  Rng rng(1);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(graph, model, context.solver(), rng);
  PartitionEnv env(graph, model, baseline.eval.runtime_s, objective);
  LocalSearchRun out;
  out.rewards = HillClimbSearch{Rng(13)}.Run(context, env, budget).rewards;
  Rng probe_rng(17);
  out.probed = ProbeSingleNodeMoves(
      graph, baseline.partition, env.Reward(baseline.partition),
      [&env](const Partition& p) { return env.Reward(p); }, budget,
      probe_rng);
  out.best_reward = env.best_reward();
  out.best = env.best_partition();
  out.evaluations = env.num_evaluations();
  return out;
}

// HillClimb and the probe must give bit-identical traces, probes,
// incumbents and evaluation counts at 1 and 4 threads, and every partition
// they return must be statically valid.
void ExpectLocalSearchBitIdenticalAcrossThreadCounts(
    const Graph& graph, PartitionEnv::Objective objective, int budget) {
  const int before = DefaultThreadCount();
  const LocalSearchRun serial = RunLocalSearch(graph, objective, 1, budget);
  ASSERT_GT(serial.best_reward, 0.0);
  EXPECT_TRUE(IsStaticallyValid(graph, serial.probed));
  EXPECT_TRUE(IsStaticallyValid(graph, serial.best));
  const LocalSearchRun threaded = RunLocalSearch(graph, objective, 4, budget);
  EXPECT_EQ(threaded.rewards, serial.rewards);
  EXPECT_EQ(threaded.probed.assignment, serial.probed.assignment);
  EXPECT_EQ(threaded.best_reward, serial.best_reward);
  EXPECT_EQ(threaded.best.assignment, serial.best.assignment);
  EXPECT_EQ(threaded.evaluations, serial.evaluations);
  SetDefaultThreadCount(before);
}

// Scoring each move through the env, with no incremental evaluator, keeps
// local search deterministic across thread counts.
TEST(SearchDeterminismTest, DeltaEvalDoesNotChangeResults) {
  std::vector<Graph> corpus = MakeCorpus();
  ExpectLocalSearchBitIdenticalAcrossThreadCounts(
      corpus[30], PartitionEnv::Objective::kThroughput, /*budget=*/120);
}

TEST(HillClimbTest, TracksBudgetAndOnlyValidMovesScore) {
  Fixture f;
  HillClimbSearch search{Rng(11)};
  const SearchTrace trace = search.Run(f.context, f.env, 200);
  EXPECT_EQ(trace.rewards.size(), 200u);
  EXPECT_EQ(trace.strategy, "HillClimb");
  int positive = 0;
  for (double r : trace.rewards) {
    EXPECT_GE(r, 0.0);
    if (r > 0.0) ++positive;
  }
  // The solver seed scores, and at least some single-node moves survive the
  // static-validity screen.
  EXPECT_GT(positive, 1);
  ASSERT_TRUE(f.env.has_best());
  EXPECT_GE(f.env.best_reward(), trace.rewards.front());
}

TEST(HillClimbTest, DeterministicPerSeedAndDeltaInvariant) {
  // BERT-scale, under the latency objective.
  ExpectLocalSearchBitIdenticalAcrossThreadCounts(
      MakeBert(), PartitionEnv::Objective::kLatency, /*budget=*/300);
}

TEST(NoSolverRlTest, FindsNoValidPartition) {
  // Table 1 / Section 5.1: without the constraint solver the reward space
  // is so sparse that RL never sees a valid sample.
  Fixture f;
  RlConfig config = RlConfig::Quick();
  config.solver_mode = RlConfig::SolverMode::kNone;
  config.rollouts_per_update = 10;
  config.seed = 9;
  PolicyNetwork policy(config);
  RlSearch search(policy, Rng(7), /*zero_shot=*/false, "RL-NoSolver");
  const SearchTrace trace = search.Run(f.context, f.env, 40);
  EXPECT_EQ(trace.rewards.size(), 40u);
  EXPECT_DOUBLE_EQ(trace.BestWithin(40), 0.0);
}

}  // namespace
}  // namespace mcm
