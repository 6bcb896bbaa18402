#include "rl/env.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "partition/heuristics.h"

namespace mcm {

SolveResult RepairPartition(CpSolver& solver, const Graph& graph,
                            const Partition& candidate, Rng& rng) {
  return SolveFixWithRestarts(solver, graph, candidate, rng);
}

BaselineResult ComputeHeuristicBaseline(const Graph& graph, CostModel& model,
                                        CpSolver& solver, Rng& rng,
                                        CostModel* fallback,
                                        const RetryPolicy* retry_policy) {
  const Partition greedy =
      GreedyContiguousByCount(graph, solver.num_chips());
  BaselineResult result;
  if (IsStaticallyValid(graph, greedy)) {
    result.partition = greedy;
  } else {
    // Deterministic repair: the baseline must be stable across runs, so use
    // a fixed-seed repair stream independent of the caller's rng state.
    Rng repair_rng(HashCombine(0xba5e11d5ULL, graph.NumNodes()));
    SolveResult repair = RepairPartition(solver, graph, greedy, repair_rng);
    // FIX mode always terminates with a valid partition on these graphs;
    // fall back to the always-valid single-chip partition if it could not.
    if (repair.success) {
      result.partition = std::move(repair.partition);
    } else {
      result.partition = Partition::Empty(graph.NumNodes(), solver.num_chips());
      std::fill(result.partition.assignment.begin(),
                result.partition.assignment.end(), 0);
    }
    (void)rng;
  }
  // The baseline anchors every reward in a run, so it deserves the same
  // retry/degradation protection as rollout evaluations.
  ResilientCostModel resilient(
      &model, fallback,
      retry_policy != nullptr ? *retry_policy : RetryPolicy::FromEnv());
  result.eval = resilient.Evaluate(graph, result.partition);
  return result;
}

PartitionEnv::PartitionEnv(const Graph& graph, CostModel& model,
                           double baseline_runtime_s, Objective objective,
                           int /*ignored*/, CostModel* fallback_model,
                           const RetryPolicy* retry_policy)
    : graph_(&graph),
      model_(&model),
      resilient_(std::make_shared<ResilientCostModel>(
          &model, fallback_model,
          retry_policy != nullptr ? *retry_policy : RetryPolicy::FromEnv())),
      baseline_runtime_s_(baseline_runtime_s),
      objective_(objective) {}

// MCM_CONTRACT(deterministic): the reward is part of the transferability
// contract -- identical partitions must score identically across runs,
// thread counts, and hosts (mcmlint's nondet-reach rule audits everything
// reachable from here).
double PartitionEnv::Score(const Partition& partition,
                           EvalResult* eval) const {
  *eval = resilient_->Evaluate(*graph_, partition);
  return RewardOf(*eval);
}

double PartitionEnv::RewardOf(const EvalResult& eval) const {
  const double cost =
      objective_ == Objective::kLatency ? eval.latency_s : eval.runtime_s;
  if (!eval.valid || cost <= 0.0) return 0.0;
  return baseline_runtime_s_ / cost;
}

void PartitionEnv::CommitScore(const Partition& partition,
                               const EvalResult& eval, double reward) {
  ++num_evaluations_;
  last_eval_ = eval;
  if (reward > best_reward_) {
    best_reward_ = reward;
    best_partition_ = partition;
  }
}

double PartitionEnv::Reward(const Partition& partition) {
  EvalResult eval;
  const double reward = Score(partition, &eval);
  CommitScore(partition, eval, reward);
  return reward;
}

const Partition& ScoredPartition(const Rollout& rollout,
                                 RlConfig::SolverMode mode) {
  return mode == RlConfig::SolverMode::kNone ? rollout.candidate
                                             : rollout.corrected;
}

void CorrectRollout(GraphContext& context, CpSolver& solver,
                    RlConfig::SolverMode mode, Rollout& rollout, Rng& rng) {
  const Graph& graph = context.graph();
  if (mode == RlConfig::SolverMode::kNone) {
    rollout.corrected = rollout.candidate;
    rollout.solver_success = true;
    return;
  }
  SolveResult solved;
  if (mode == RlConfig::SolverMode::kFix) {
    solved = SolveFixWithRestarts(solver, graph, rollout.candidate, rng);
  } else {
    solved = SolveSampleWithRestarts(solver, graph, rollout.probs, rng);
  }
  rollout.solver_success = solved.success;
  if (!solved.success) {
    // Extremely rare (solver budget exhausted): treat as an invalid sample.
    rollout.corrected = rollout.candidate;
    return;
  }
  rollout.corrected = std::move(solved.partition);

  {
    // The solver's corrected assignment y' is the action that actually
    // earned the reward (the paper trains on the reward of y' rather than
    // y): retarget the final decode iteration at y', with log-probs taken
    // from the emitted distribution P.  Without this, an untrained policy
    // gets near-zero learning signal -- the correction decorrelates the
    // sampled y from the reward.
    const int n = context.num_nodes();
    auto& final_actions = rollout.actions.back();
    auto& final_logp = rollout.old_logp.back();
    for (int i = 0; i < n; ++i) {
      const int chip = rollout.corrected.chip(i);
      final_actions[static_cast<std::size_t>(i)] = chip;
      const double p = std::max(
          static_cast<double>(
              rollout.probs.row(i)[static_cast<std::size_t>(chip)]),
          1e-12);
      final_logp[static_cast<std::size_t>(i)] =
          static_cast<float>(std::log(p));
    }
  }
}

void CorrectAndScore(GraphContext& context, PartitionEnv& env,
                     RlConfig::SolverMode mode, Rollout& rollout, Rng& rng) {
  CorrectRollout(context, context.solver(), mode, rollout, rng);
  if (!rollout.solver_success) {
    rollout.reward = 0.0;
    return;
  }
  rollout.reward = env.Reward(ScoredPartition(rollout, mode));
}

}  // namespace mcm
