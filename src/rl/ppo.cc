#include "rl/ppo.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stats.h"
#include "runtime/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

constexpr double kRewardBounds[] = {0.0, 0.25, 0.5, 0.75, 1.0,
                                    1.5, 2.0,  3.0, 5.0};

}  // namespace

PpoTrainer::PpoTrainer(PolicyNetwork& policy, Rng rng)
    : policy_(policy),
      adam_(policy.Params(),
            Adam::Options{.lr = policy.config().learning_rate}),
      rng_(rng) {}

std::vector<Rollout> PpoTrainer::CollectRollouts(GraphContext& context,
                                                 PartitionEnv& env, int count,
                                                 IterationResult& result) {
  const RlConfig::SolverMode mode = policy_.config().solver_mode;
  // One base draw per batch keeps the trainer's RNG stream identical for
  // any thread count; each rollout derives a private substream from it
  // (the runtime's determinism contract, runtime/thread_pool.h).
  const std::uint64_t base_seed = rng_.Next();
  // h_G depends only on the graph and the parameters, which no rollout
  // changes: embed once and decode every rollout from the same matrix.
  const Matrix h = policy_.Embed(context);

  std::vector<Rollout> rollouts(static_cast<std::size_t>(count));
  std::vector<EvalResult> evals(static_cast<std::size_t>(count));
  std::vector<double> scores(static_cast<std::size_t>(count), 0.0);
  ParallelFor(0, count, [&](std::int64_t k) {
    Rng task_rng(HashCombine(base_seed, static_cast<std::uint64_t>(k)));
    Rollout& rollout = rollouts[static_cast<std::size_t>(k)];
    rollout = policy_.SampleRollout(context, h, task_rng);
    // CpSolver is stateful: each task repairs with a private instance (with
    // the context solver's options, so a request's propagation budget
    // holds) and the context's shared solver is never touched concurrently.
    CpSolver solver(context.graph(), context.solver().num_chips(),
                    context.solver().options());
    CorrectRollout(context, solver, mode, rollout, task_rng);
    if (rollout.solver_success) {
      scores[static_cast<std::size_t>(k)] = env.Score(
          ScoredPartition(rollout, mode), &evals[static_cast<std::size_t>(k)]);
    }
  });

  // Serial reduction in collection order: environment counters, incumbent
  // tracking, and reward bookkeeping match the single-threaded loop bit for
  // bit.  Telemetry recorded here (not in the workers) costs nothing extra
  // and keeps per-episode ordering trivially deterministic.
  static telemetry::Counter& episodes = telemetry::Counter::Get("rl/episodes");
  static telemetry::Counter& invalid_episodes =
      telemetry::Counter::Get("rl/invalid_episodes");
  static telemetry::Histogram& reward_hist =
      telemetry::Histogram::Get("rl/reward", kRewardBounds);
  for (int k = 0; k < count; ++k) {
    Rollout& rollout = rollouts[static_cast<std::size_t>(k)];
    if (rollout.solver_success) {
      rollout.reward = scores[static_cast<std::size_t>(k)];
      env.CommitScore(ScoredPartition(rollout, mode),
                      evals[static_cast<std::size_t>(k)], rollout.reward);
    } else {
      rollout.reward = 0.0;
    }
    result.rewards.push_back(rollout.reward);
    if (rollout.reward <= 0.0) {
      ++result.invalid_samples;
      invalid_episodes.Add();
    }
    episodes.Add();
    reward_hist.Observe(rollout.reward);
  }
  return rollouts;
}

PpoTrainer::IterationResult PpoTrainer::Iterate(GraphContext& context,
                                                PartitionEnv& env) {
  const RlConfig& config = policy_.config();
  IterationResult result;
  std::vector<Rollout> rollouts;
  {
    MCM_TRACE_SPAN("rl/collect");
    rollouts =
        CollectRollouts(context, env, config.rollouts_per_update, result);
  }

  RunningStats reward_stats;
  for (const Rollout& rollout : rollouts) reward_stats.Add(rollout.reward);
  result.mean_reward = reward_stats.Mean();
  result.best_reward = reward_stats.Max();

  // Advantages: reward minus the learned value baseline, normalized across
  // the batch for stable updates.
  RunningStats adv_stats;
  for (Rollout& rollout : rollouts) {
    rollout.advantage = rollout.reward - rollout.value_pred;
    adv_stats.Add(rollout.advantage);
  }
  const double adv_std = std::max(adv_stats.Stddev(), 1e-6);
  for (Rollout& rollout : rollouts) {
    rollout.advantage = (rollout.advantage - adv_stats.Mean()) / adv_std;
  }

  // PPO epochs over shuffled minibatches.
  MCM_TRACE_SPAN("rl/update");
  static telemetry::Counter& policy_updates =
      telemetry::Counter::Get("rl/policy_updates");
  static telemetry::Counter& minibatches =
      telemetry::Counter::Get("rl/minibatches");
  policy_updates.Add();
  std::vector<const Rollout*> pool;
  pool.reserve(rollouts.size());
  for (const Rollout& rollout : rollouts) pool.push_back(&rollout);
  const int num_minibatches = std::max(1, config.minibatches);
  RunningStats loss_stats;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng_.Shuffle(pool);
    for (int mb = 0; mb < num_minibatches; ++mb) {
      const std::size_t begin = pool.size() * mb / num_minibatches;
      const std::size_t end = pool.size() * (mb + 1) / num_minibatches;
      if (begin == end) continue;
      Tape tape;
      const VarId loss = policy_.BuildMinibatchLoss(
          tape, context,
          std::span<const Rollout* const>(pool.data() + begin, end - begin));
      loss_stats.Add(static_cast<double>(tape.value(loss).at(0, 0)));
      tape.Backward(loss);
      adam_.Step();
      minibatches.Add();
    }
  }
  result.mean_loss = loss_stats.Mean();
  return result;
}

PpoTrainer::IterationResult PpoTrainer::EvaluateOnly(GraphContext& context,
                                                     PartitionEnv& env,
                                                     int num_samples) {
  IterationResult result;
  std::vector<Rollout> rollouts =
      CollectRollouts(context, env, num_samples, result);
  RunningStats reward_stats;
  for (const Rollout& rollout : rollouts) reward_stats.Add(rollout.reward);
  result.mean_reward = reward_stats.Mean();
  result.best_reward = reward_stats.Max();
  return result;
}

}  // namespace mcm
