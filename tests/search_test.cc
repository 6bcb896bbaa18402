// Tests for the search strategies and their traces.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "rl/env.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "solver/modes.h"

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

// Evaluates exactly like the AnalyticalCostModel it wraps without being
// one, so an env over it scores every partition by full evaluation.
// `calls` counts those evaluations.
class ForwardingModel final : public CostModel {
 public:
  explicit ForwardingModel(AnalyticalCostModel& inner) : inner_(&inner) {}
  EvalResult Evaluate(const Graph& graph,
                      const Partition& partition) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return inner_->Evaluate(graph, partition);
  }
  std::string name() const override { return inner_->name(); }

  std::atomic<std::int64_t> calls{0};

 private:
  AnalyticalCostModel* inner_;
};

struct LocalSearchRun {
  std::vector<double> rewards;  // HillClimb trace.
  std::vector<int> probed;      // ProbeSingleNodeMoves result.
  double best_reward = 0.0;
  std::vector<int> best;
  std::int64_t evaluations = 0;
};

// HillClimb, then ProbeSingleNodeMoves from the baseline through
// env.Reward, on one env over `model` at `threads` worker threads.
LocalSearchRun RunLocalSearch(const Graph& graph, CostModel& model,
                              PartitionEnv::Objective objective, int threads,
                              int budget) {
  SetDefaultThreadCount(threads);
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
                   [&env](const Partition& p) { return env.Reward(p); },
                   budget, probe_rng)
                   .assignment;
  out.best_reward = env.best_reward();
  out.best = env.best_partition().assignment;
  out.evaluations = env.num_evaluations();
  return out;
}

// Scoring from the evaluator (analytical env) and by full evaluation
// (forwarding env) must give bit-identical traces, probes and incumbents at
// 1 and 4 threads.
void ExpectEvaluatorPathIsFullEvaluation(const Graph& graph,
                                         PartitionEnv::Objective objective,
                                         int budget) {
  const int before = DefaultThreadCount();
  AnalyticalCostModel analytical{McmConfig{}};
  ForwardingModel forwarding(analytical);
  const LocalSearchRun reference =
      RunLocalSearch(graph, analytical, objective, 1, budget);
  ASSERT_GT(reference.best_reward, 0.0);
  for (const int threads : {1, 4}) {
    for (CostModel* model : {static_cast<CostModel*>(&analytical),
                             static_cast<CostModel*>(&forwarding)}) {
      forwarding.calls = 0;
      const LocalSearchRun run =
          RunLocalSearch(graph, *model, objective, threads, budget);
      EXPECT_EQ(run.rewards, reference.rewards) << threads;
      EXPECT_EQ(run.probed, reference.probed) << threads;
      EXPECT_EQ(run.best_reward, reference.best_reward) << threads;
      EXPECT_EQ(run.best, reference.best) << threads;
      EXPECT_EQ(run.evaluations, reference.evaluations) << threads;
      if (model == &forwarding) {
        // The forwarding env fully evaluated every scored partition.
        EXPECT_GE(forwarding.calls.load(), run.evaluations) << threads;
      }
    }
  }
  SetDefaultThreadCount(before);
}

TEST(SearchDeterminismTest, DeltaEvalDoesNotChangeResults) {
  std::vector<Graph> corpus = MakeCorpus();
  ExpectEvaluatorPathIsFullEvaluation(
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
  ExpectEvaluatorPathIsFullEvaluation(
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
  NoSolverRlSearch search(policy, Rng(7));
  const SearchTrace trace = search.Run(f.context, f.env, 40);
  EXPECT_EQ(trace.rewards.size(), 40u);
  EXPECT_DOUBLE_EQ(trace.BestWithin(40), 0.0);
}

}  // namespace
}  // namespace mcm
