// Tests for the policy network, environment, and PPO trainer.
#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/ppo.h"

namespace mcm {
namespace {

RlConfig TinyConfig() {
  RlConfig config = RlConfig::Quick();
  config.gnn_layers = 2;
  config.hidden_dim = 16;
  config.rollouts_per_update = 6;
  config.minibatches = 2;
  config.epochs = 2;
  config.seed = 5;
  return config;
}

TEST(GraphContextTest, PrecomputesFeaturesAndNeighbors) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  GraphContext context(g, 36);
  EXPECT_EQ(context.num_nodes(), g.NumNodes());
  EXPECT_EQ(context.features().rows, g.NumNodes());
  EXPECT_EQ(context.neighbors().num_rows(), g.NumNodes());
  EXPECT_EQ(context.solver().num_chips(), 36);
}

TEST(PolicyTest, SampleRolloutShapes) {
  const Graph g = MakeMlp("m", 64, {64, 64, 64}, 10);
  GraphContext context(g, 36);
  RlConfig config = TinyConfig();
  PolicyNetwork policy(config);
  Rng rng(1);
  const Rollout rollout = policy.SampleRollout(context, rng);
  ASSERT_EQ(static_cast<int>(rollout.actions.size()),
            config.decode_iterations);
  for (const auto& step : rollout.actions) {
    ASSERT_EQ(static_cast<int>(step.size()), g.NumNodes());
    for (int a : step) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, 36);
    }
  }
  EXPECT_EQ(rollout.probs.num_nodes, g.NumNodes());
  EXPECT_EQ(rollout.probs.num_chips, 36);
  EXPECT_TRUE(rollout.candidate.Complete());
}

// Every decoded field of two rollouts matches bit for bit.
void ExpectSameRollout(const Rollout& a, const Rollout& b) {
  EXPECT_EQ(a.actions, b.actions);
  EXPECT_EQ(a.old_logp, b.old_logp);
  EXPECT_EQ(a.probs.data, b.probs.data);
  EXPECT_EQ(a.value_pred, b.value_pred);
  EXPECT_EQ(a.candidate, b.candidate);
}

TEST(PolicyTest, SampleRolloutIsDeterministicPerSeed) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  GraphContext context(g, 36);
  PolicyNetwork policy(TinyConfig());
  Rng r1(4), r2(4);
  ExpectSameRollout(policy.SampleRollout(context, r1),
                    policy.SampleRollout(context, r2));
}

TEST(PolicyTest, SameSeedSamePolicy) {
  const Graph g = MakeMlp("m", 64, {64}, 10);
  GraphContext context(g, 36);
  PolicyNetwork p1(TinyConfig()), p2(TinyConfig());
  Rng r1(4), r2(4);
  ExpectSameRollout(p1.SampleRollout(context, r1),
                    p2.SampleRollout(context, r2));
}

// PpoTrainer embeds once per batch and decodes from that matrix; the result
// must equal the one-argument form, which embeds afresh.  Checked again
// after a parameter change, where a stale embedding would decode
// differently.
TEST(PolicyTest, PrecomputedEmbeddingMatchesOneArgumentSampleRollout) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  GraphContext context(g, 36);
  PolicyNetwork policy(TinyConfig());
  Rng r1(8), r2(8);
  const Matrix h = policy.Embed(context);
  ExpectSameRollout(policy.SampleRollout(context, h, r1),
                    policy.SampleRollout(context, r2));

  for (Param* param : policy.Params()) {
    for (float& v : param->value.data) v += 0.25f;
  }
  const Matrix perturbed = policy.Embed(context);
  EXPECT_NE(perturbed.data, h.data);
  ExpectSameRollout(policy.SampleRollout(context, perturbed, r1),
                    policy.SampleRollout(context, r2));
}

TEST(PolicyTest, LossIsFiniteAndBackpropagates) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  GraphContext context(g, 36);
  PolicyNetwork policy(TinyConfig());
  Rng rng(2);
  Rollout rollout = policy.SampleRollout(context, rng);
  rollout.reward = 1.2;
  rollout.advantage = 0.5;
  Tape tape;
  const VarId loss = policy.BuildLoss(tape, context, rollout);
  EXPECT_TRUE(std::isfinite(tape.value(loss).at(0, 0)));
  tape.Backward(loss);
  double grad_norm = 0.0;
  for (Param* p : policy.Params()) {
    for (float gval : p->grad.data) grad_norm += std::abs(gval);
  }
  EXPECT_GT(grad_norm, 0.0);
}

// Samples `count` rollouts with distinct rewards and advantages.
std::vector<Rollout> SampleScoredRollouts(PolicyNetwork& policy,
                                          GraphContext& context, int count) {
  Rng rng(3);
  std::vector<Rollout> rollouts;
  for (int k = 0; k < count; ++k) {
    rollouts.push_back(policy.SampleRollout(context, rng));
    rollouts.back().reward = 0.4 + 0.15 * k;
    rollouts.back().advantage = 0.3 * (k % 4) - 0.5;
  }
  return rollouts;
}

// The minibatch loss over `rollouts`; with `backward`, its gradients are
// also accumulated into the parameters.
double MinibatchLoss(PolicyNetwork& policy, GraphContext& context,
                     const std::vector<Rollout>& rollouts, bool backward) {
  std::vector<const Rollout*> ptrs;
  for (const Rollout& r : rollouts) ptrs.push_back(&r);
  Tape tape;
  const VarId loss = policy.BuildMinibatchLoss(tape, context, ptrs);
  if (backward) tape.Backward(loss);
  return tape.value(loss).at(0, 0);
}

// The minibatch loss shares iteration 0's head and the value head across
// its rollouts; sharing must not change what it computes.
TEST(PolicyTest, MinibatchLossIsMeanOfRolloutLosses) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  GraphContext context(g, 36);
  PolicyNetwork policy(TinyConfig());
  const std::vector<Rollout> rollouts =
      SampleScoredRollouts(policy, context, 10);
  const ParamRefs params = policy.Params();

  const double batch_loss =
      MinibatchLoss(policy, context, rollouts, /*backward=*/true);
  std::vector<Matrix> batch_grads;
  for (Param* p : params) {
    batch_grads.push_back(p->grad);
    p->grad.Zero();
  }

  double loss_sum = 0.0;
  for (const Rollout& rollout : rollouts) {
    Tape tape;
    const VarId loss = policy.BuildLoss(tape, context, rollout);
    tape.Backward(loss);  // Gradients of all ten add up in p->grad.
    loss_sum += tape.value(loss).at(0, 0);
  }
  const double mean_loss = loss_sum / 10.0;
  EXPECT_NEAR(batch_loss, mean_loss, 1e-6 * std::abs(mean_loss));
  for (std::size_t k = 0; k < params.size(); ++k) {
    float largest = 0.0f;
    for (float x : params[k]->grad.data) {
      largest = std::max(largest, std::abs(x / 10.0f));
    }
    ASSERT_GT(largest, 0.0f) << params[k]->name;
    for (std::size_t i = 0; i < params[k]->grad.data.size(); ++i) {
      ASSERT_NEAR(batch_grads[k].data[i], params[k]->grad.data[i] / 10.0f,
                  1e-5f * largest)
          << params[k]->name << "[" << i << "]";
    }
  }
}

// Central differences through the factored head (both decode iterations)
// and the value head, at every supported head depth.
TEST(PolicyTest, HeadGradientsMatchFiniteDifferences) {
  const Graph g = MakeMlp("m", 16, {16}, 4);
  GraphContext context(g, 4);
  for (int layers = 1; layers <= 3; ++layers) {
    RlConfig config = TinyConfig();
    config.num_chips = 4;
    config.hidden_dim = 8;
    config.gnn_layers = 1;
    config.policy_layers = layers;
    PolicyNetwork policy(config);
    // Biases start at zero, so a row whose hidden units are all dead sits
    // exactly on a ReLU kink, where central differences disagree with the
    // one-sided derivative backprop takes.  Move every bias off zero.
    Rng bias_rng(11);
    for (Param* p : policy.Params()) {
      if (p->name.ends_with("/b")) {
        for (float& x : p->value.data) {
          x = static_cast<float>(bias_rng.UniformDouble(-0.2, 0.2));
        }
      }
    }
    const std::vector<Rollout> rollouts =
        SampleScoredRollouts(policy, context, 3);
    MinibatchLoss(policy, context, rollouts, /*backward=*/true);
    for (Param* p : policy.Params()) {
      if (!p->name.starts_with("policy/") && !p->name.starts_with("value/")) {
        continue;
      }
      float largest = 0.0f;
      for (float x : p->grad.data) largest = std::max(largest, std::abs(x));
      ASSERT_GT(largest, 0.0f) << p->name << " at " << layers << " layers";
      const Matrix analytic = p->grad;
      const std::size_t size = p->value.data.size();
      const std::size_t stride = std::max<std::size_t>(1, size / 7);
      for (std::size_t i = 0; i < size; i += stride) {
        const float saved = p->value.data[i];
        const float step = 1e-3f;
        auto loss_at = [&](float x) {
          p->value.data[i] = x;
          return MinibatchLoss(policy, context, rollouts, /*backward=*/false);
        };
        const double numeric =
            (loss_at(saved + step) - loss_at(saved - step)) / (2.0 * step);
        p->value.data[i] = saved;
        EXPECT_NEAR(numeric, analytic.data[i], 2e-2 * largest + 1e-5)
            << p->name << "[" << i << "] at " << layers << " layers";
      }
    }
  }
}

TEST(EnvTest, RewardIsImprovementOverBaseline) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  AnalyticalCostModel model{McmConfig{}};
  PartitionEnv env(g, model, /*baseline_runtime_s=*/1e-3);
  // All nodes on chip 0 is always valid.
  Partition p = Partition::Empty(g.NumNodes(), 36);
  std::fill(p.assignment.begin(), p.assignment.end(), 0);
  const double reward = env.Reward(p);
  const EvalResult direct = model.Evaluate(g, p);
  EXPECT_NEAR(reward, 1e-3 / direct.runtime_s, 1e-9);
  EXPECT_EQ(env.num_evaluations(), 1);
}

TEST(EnvTest, InvalidPartitionEarnsZero) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  AnalyticalCostModel model{McmConfig{}};
  PartitionEnv env(g, model, 1e-3);
  Partition p = Partition::Empty(g.NumNodes(), 36);
  std::fill(p.assignment.begin(), p.assignment.end(), 0);
  p.assignment[0] = 5;  // Source above its consumers: monotone violation.
  EXPECT_EQ(env.Reward(p), 0.0);
  EXPECT_EQ(env.last_eval().failure, EvalFailure::kStaticConstraint);
}

TEST(EnvTest, HeuristicBaselineIsValidOnCorpus) {
  const std::vector<Graph> corpus = MakeCorpus();
  AnalyticalCostModel model{McmConfig{}};
  Rng rng(3);
  for (int idx : {1, 25, 55, 82}) {
    const Graph& g = corpus[static_cast<std::size_t>(idx)];
    CpSolver solver(g, 36);
    const BaselineResult baseline =
        ComputeHeuristicBaseline(g, model, solver, rng);
    EXPECT_TRUE(baseline.eval.valid) << g.name();
    EXPECT_EQ(ValidateStatic(g, baseline.partition), Violation::kNone)
        << g.name();
  }
}

TEST(EnvTest, CorrectAndScoreProducesValidPartitions) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[30];
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  Rng rng(4);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, context.solver(), rng);
  PartitionEnv env(g, model, baseline.eval.runtime_s);
  PolicyNetwork policy(TinyConfig());
  for (const auto mode :
       {RlConfig::SolverMode::kFix, RlConfig::SolverMode::kSample}) {
    Rollout rollout = policy.SampleRollout(context, rng);
    CorrectAndScore(context, env, mode, rollout, rng);
    ASSERT_TRUE(rollout.solver_success);
    EXPECT_EQ(ValidateStatic(g, rollout.corrected), Violation::kNone);
    EXPECT_GT(rollout.reward, 0.0);
    // Final-iteration actions were retargeted at the corrected partition.
    for (int u = 0; u < g.NumNodes(); ++u) {
      EXPECT_EQ(rollout.actions.back()[static_cast<std::size_t>(u)],
                rollout.corrected.chip(u));
    }
  }
}

TEST(EnvTest, NoSolverModeScoresRawCandidate) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  PartitionEnv env(g, model, 1e-3);
  PolicyNetwork policy(TinyConfig());
  Rng rng(6);
  Rollout rollout = policy.SampleRollout(context, rng);
  CorrectAndScore(context, env, RlConfig::SolverMode::kNone, rollout, rng);
  EXPECT_EQ(rollout.corrected, rollout.candidate);
  // An untrained policy's candidate is essentially always invalid.
  if (ValidateStatic(g, rollout.candidate) != Violation::kNone) {
    EXPECT_EQ(rollout.reward, 0.0);
  }
}

TEST(PpoTest, IterationProducesRequestedSamples) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[12];
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  Rng rng(7);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, context.solver(), rng);
  PartitionEnv env(g, model, baseline.eval.runtime_s);
  RlConfig config = TinyConfig();
  PolicyNetwork policy(config);
  PpoTrainer trainer(policy, Rng(8));
  const auto result = trainer.Iterate(context, env);
  EXPECT_EQ(static_cast<int>(result.rewards.size()),
            config.rollouts_per_update);
  EXPECT_GE(result.best_reward, result.mean_reward);
  EXPECT_TRUE(std::isfinite(result.mean_loss));
}

TEST(PpoTest, UpdateChangesParameters) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[12];
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  Rng rng(9);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, context.solver(), rng);
  PartitionEnv env(g, model, baseline.eval.runtime_s);
  PolicyNetwork policy(TinyConfig());
  const std::vector<Matrix> before = SnapshotParams(policy.Params());
  PpoTrainer trainer(policy, Rng(10));
  trainer.Iterate(context, env);
  const std::vector<Matrix> after = SnapshotParams(policy.Params());
  bool changed = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i].data != after[i].data) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(PpoTest, EvaluateOnlyLeavesParametersUntouched) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[12];
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  Rng rng(11);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, context.solver(), rng);
  PartitionEnv env(g, model, baseline.eval.runtime_s);
  PolicyNetwork policy(TinyConfig());
  const std::vector<Matrix> before = SnapshotParams(policy.Params());
  PpoTrainer trainer(policy, Rng(12));
  const auto result = trainer.EvaluateOnly(context, env, 5);
  EXPECT_EQ(result.rewards.size(), 5u);
  const std::vector<Matrix> after = SnapshotParams(policy.Params());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].data, after[i].data);
  }
}

TEST(PpoTest, LearnsOnSmallGraph) {
  // Learning sanity check.  With the epsilon-uniform exploration mix the
  // *initial* sample quality already matches random search, so the check is
  // (a) training never degrades the sampling distribution and (b) the run
  // discovers clearly-better-than-baseline partitions.
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph* g = nullptr;
  for (const auto& c : corpus) {
    if (c.name() == "lstm_3") g = &c;
  }
  ASSERT_NE(g, nullptr);
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(*g, 36);
  Rng rng(13);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(*g, model, context.solver(), rng);
  PartitionEnv env(*g, model, baseline.eval.runtime_s);
  RlConfig config = RlConfig::Quick();
  config.seed = 3;
  PolicyNetwork policy(config);
  PpoTrainer trainer(policy, Rng(9));
  double first_mean = 0.0;
  double last_means = 0.0;
  double best = 0.0;
  const int iterations = 30;
  for (int it = 0; it < iterations; ++it) {
    const auto result = trainer.Iterate(context, env);
    if (it == 0) first_mean = result.mean_reward;
    if (it >= iterations - 5) last_means += result.mean_reward / 5.0;
    best = std::max(best, result.best_reward);
  }
  EXPECT_GT(last_means, 0.85 * first_mean);
  EXPECT_GT(best, 1.2);
}

}  // namespace
}  // namespace mcm
