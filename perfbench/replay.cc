#include "replay.h"

#include <algorithm>
#include <span>

#include "common/stats.h"
#include "harness.h"
#include "runtime/thread_pool.h"

namespace perfbench {
namespace {

using mcm::PpoTrainer;

// Mirrors PpoTrainer::CollectRollouts: one base draw, a private substream
// and solver per rollout in parallel, then a serial commit in order.
std::vector<mcm::Rollout> ReplayCollect(PpoTrainer& trainer,
                                        mcm::GraphContext& context,
                                        mcm::PartitionEnv& env, int count,
                                        PpoTrainer::IterationResult& result,
                                        ReplayLog* log) {
  ScopedSpan collect_span("rl/collect");
  mcm::PolicyNetwork& policy = trainer.policy();
  const mcm::RlConfig::SolverMode mode = policy.config().solver_mode;
  const char* score_span =
      env.model().name() == "hwsim" ? "hwsim/score" : "costmodel/score";
  const std::uint64_t base_seed = trainer.rng().Next();

  std::vector<mcm::Rollout> rollouts(static_cast<std::size_t>(count));
  std::vector<mcm::EvalResult> evals(static_cast<std::size_t>(count));
  std::vector<double> scores(static_cast<std::size_t>(count), 0.0);
  mcm::ParallelFor(0, count, [&](std::int64_t k) {
    const std::size_t i = static_cast<std::size_t>(k);
    mcm::Rng task_rng(mcm::HashCombine(base_seed, static_cast<std::uint64_t>(k)));
    {
      ScopedSpan span("rl/sample_rollout");
      rollouts[i] = policy.SampleRollout(context, task_rng);
    }
    {
      ScopedSpan span("solver/correct_rollout");
      mcm::CpSolver solver(context.graph(), context.solver().num_chips());
      mcm::CorrectRollout(context, solver, mode, rollouts[i], task_rng);
    }
    if (rollouts[i].solver_success) {
      ScopedSpan span(score_span);
      scores[i] = env.Score(mcm::ScoredPartition(rollouts[i], mode), &evals[i]);
    }
  });

  ScopedSpan commit_span("rl/commit");
  for (int k = 0; k < count; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    mcm::Rollout& rollout = rollouts[i];
    if (rollout.solver_success) {
      rollout.reward = scores[i];
      env.CommitScore(mcm::ScoredPartition(rollout, mode), evals[i],
                      rollout.reward);
      if (log != nullptr) {
        log->placements.push_back(mcm::ScoredPartition(rollout, mode));
        log->rewards.push_back(rollout.reward);
      }
    } else {
      rollout.reward = 0.0;
    }
    result.rewards.push_back(rollout.reward);
    if (rollout.reward <= 0.0) ++result.invalid_samples;
  }
  return rollouts;
}

}  // namespace

PpoTrainer::IterationResult ReplayIterate(PpoTrainer& trainer,
                                          mcm::GraphContext& context,
                                          mcm::PartitionEnv& env,
                                          ReplayLog* log) {
  mcm::PolicyNetwork& policy = trainer.policy();
  const mcm::RlConfig& config = policy.config();
  PpoTrainer::IterationResult result;
  std::vector<mcm::Rollout> rollouts = ReplayCollect(
      trainer, context, env, config.rollouts_per_update, result, log);

  ScopedSpan update_span("rl/update");
  mcm::RunningStats reward_stats;
  for (const mcm::Rollout& rollout : rollouts) reward_stats.Add(rollout.reward);
  result.mean_reward = reward_stats.Mean();
  result.best_reward = reward_stats.Max();

  mcm::RunningStats adv_stats;
  for (mcm::Rollout& rollout : rollouts) {
    rollout.advantage = rollout.reward - rollout.value_pred;
    adv_stats.Add(rollout.advantage);
  }
  const double adv_std = std::max(adv_stats.Stddev(), 1e-6);
  for (mcm::Rollout& rollout : rollouts) {
    rollout.advantage = (rollout.advantage - adv_stats.Mean()) / adv_std;
  }

  std::vector<const mcm::Rollout*> pool;
  pool.reserve(rollouts.size());
  for (const mcm::Rollout& rollout : rollouts) pool.push_back(&rollout);
  const int num_minibatches = std::max(1, config.minibatches);
  mcm::RunningStats loss_stats;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    trainer.rng().Shuffle(pool);
    for (int mb = 0; mb < num_minibatches; ++mb) {
      const std::size_t begin = pool.size() * mb / num_minibatches;
      const std::size_t end = pool.size() * (mb + 1) / num_minibatches;
      if (begin == end) continue;
      mcm::Tape tape;
      mcm::VarId loss;
      {
        ScopedSpan span("nn/minibatch_loss");
        loss = policy.BuildMinibatchLoss(
            tape, context,
            std::span<const mcm::Rollout* const>(pool.data() + begin,
                                                 end - begin));
      }
      loss_stats.Add(static_cast<double>(tape.value(loss).at(0, 0)));
      {
        ScopedSpan span("nn/backward");
        tape.Backward(loss);
      }
      {
        ScopedSpan span("nn/adam");
        trainer.optimizer().Step();
      }
    }
  }
  result.mean_loss = loss_stats.Mean();
  return result;
}

PpoTrainer::IterationResult ReplayEvaluateOnly(PpoTrainer& trainer,
                                               mcm::GraphContext& context,
                                               mcm::PartitionEnv& env,
                                               int num_samples,
                                               ReplayLog* log) {
  PpoTrainer::IterationResult result;
  std::vector<mcm::Rollout> rollouts =
      ReplayCollect(trainer, context, env, num_samples, result, log);
  mcm::RunningStats reward_stats;
  for (const mcm::Rollout& rollout : rollouts) reward_stats.Add(rollout.reward);
  result.mean_reward = reward_stats.Mean();
  result.best_reward = reward_stats.Max();
  return result;
}

mcm::SearchTrace ReplayRlSearch(PpoTrainer& trainer,
                                mcm::GraphContext& context,
                                mcm::PartitionEnv& env, int budget,
                                bool zero_shot, ReplayLog* log) {
  mcm::SearchTrace trace;
  const int per_update = trainer.policy().config().rollouts_per_update;
  while (static_cast<int>(trace.rewards.size()) < budget) {
    const int remaining = budget - static_cast<int>(trace.rewards.size());
    PpoTrainer::IterationResult result;
    if (zero_shot || remaining < per_update) {
      result = ReplayEvaluateOnly(trainer, context, env,
                                  std::min(per_update, remaining), log);
    } else {
      result = ReplayIterate(trainer, context, env, log);
    }
    trace.rewards.insert(trace.rewards.end(), result.rewards.begin(),
                         result.rewards.end());
  }
  if (static_cast<int>(trace.rewards.size()) > budget) {
    trace.rewards.resize(static_cast<std::size_t>(budget));
  }
  return trace;
}

}  // namespace perfbench
