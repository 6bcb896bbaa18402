// The partitioning environment: candidate partition -> corrected partition
// -> evaluation -> reward.
//
// Rewards follow the paper's metric: throughput improvement over a compiler
// heuristic (the greedy baseline), i.e. runtime_baseline / runtime_candidate.
// An invalid partition (dynamic constraint) earns zero reward, exactly as
// the paper's evaluation platform "returns a zero throughput when it
// evaluates an invalid partition".
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "faults/faults.h"
#include "graph/graph.h"
#include "partition/partition.h"
#include "rl/policy.h"
#include "solver/modes.h"

namespace mcm {

// Repairs an arbitrary candidate into a statically valid partition with the
// solver's FIX mode over a fresh ALAP-random order.
SolveResult RepairPartition(CpSolver& solver, const Graph& graph,
                            const Partition& candidate, Rng& rng);

// The compiler-heuristic baseline the paper normalizes against: the greedy
// contiguous partition, repaired to static validity.  Returns the repaired
// partition and its evaluation (which callers should verify is valid).
struct BaselineResult {
  Partition partition;
  EvalResult eval;
};
// `fallback` (optional, not owned) is the degradation model used when
// `model` keeps failing transiently; see ResilientCostModel.  The baseline
// evaluation runs through the same retry/degradation path as rollouts.
// `retry_policy` (optional) overrides the environment-derived retry/backoff
// budget -- the partition service wires per-request deadlines through it.
BaselineResult ComputeHeuristicBaseline(const Graph& graph, CostModel& model,
                                        CpSolver& solver, Rng& rng,
                                        CostModel* fallback = nullptr,
                                        const RetryPolicy* retry_policy = nullptr);

class PartitionEnv {
 public:
  // A multi-chip TPU "focuses more on throughput rather than latency.
  // However, our framework can easily re-target a latency metric"
  // (Section 5.1): both objectives are supported.
  enum class Objective { kThroughput, kLatency };

  // `baseline_runtime_s` anchors the improvement metric (baseline latency
  // when the latency objective is selected); use ComputeHeuristicBaseline
  // to obtain it.
  //
  // Every evaluation runs through a ResilientCostModel wrapping `model`:
  // transient failures (timeouts, evaluator errors, NaN costs -- see
  // faults/faults.h) are retried with backoff, and after retry exhaustion
  // the evaluation degrades to `fallback_model` when one is provided
  // (counted in faults/degraded_evals) or scores as invalid.  With a
  // model that never fails transiently (the analytical model, or hwsim
  // without fault injection) this wrapper is a deterministic no-op.
  // `fallback_model` is not owned and must outlive the env and its copies.
  // `retry_policy` (optional, copied) overrides RetryPolicy::FromEnv() for
  // the wrapper -- the partition service derives it from each request's
  // deadline so one slow evaluation cannot eat another request's budget.
  PartitionEnv(const Graph& graph, CostModel& model,
               double baseline_runtime_s,
               Objective objective = Objective::kThroughput,
               // Ignored; deleted with the next perfbench change.
               int = 0,
               CostModel* fallback_model = nullptr,
               const RetryPolicy* retry_policy = nullptr);

  Objective objective() const { return objective_; }

  // Evaluates a (corrected) partition: improvement ratio, or 0 when invalid.
  double Reward(const Partition& partition);

  // Thread-safe half of Reward(): evaluates `partition` on the cost model
  // and returns the reward without touching any environment state, filling
  // `*eval` with the full evaluation.  Cost-model implementations are
  // stateless (see cost_model.h), so Score may run concurrently from many
  // workers; pair each call with a CommitScore in collection order so
  // counters and the incumbent are updated exactly as the sequential
  // Reward() loop would have.
  double Score(const Partition& partition, EvalResult* eval) const;

  // Serial half of Reward(): records a Score() result (evaluation counter,
  // last_eval, incumbent tracking).  Must be called from one thread at a
  // time, in the deterministic collection order.
  void CommitScore(const Partition& partition, const EvalResult& eval,
                   double reward);

  // Full evaluation result of the last Reward() call.
  const EvalResult& last_eval() const { return last_eval_; }
  double baseline_runtime_s() const { return baseline_runtime_s_; }
  const Graph& graph() const { return *graph_; }
  CostModel& model() { return *model_; }

  std::int64_t num_evaluations() const { return num_evaluations_; }

  // The best-scoring valid partition seen by this environment, if any.
  // Search strategies all score through Reward(), so after a run this holds
  // the incumbent the trace's best value refers to.
  bool has_best() const { return best_reward_ > 0.0; }
  double best_reward() const { return best_reward_; }
  const Partition& best_partition() const { return best_partition_; }

 private:
  // Improvement ratio of one evaluation under the objective; 0 if invalid.
  double RewardOf(const EvalResult& eval) const;

  const Graph* graph_;
  CostModel* model_;
  // Retry/degradation wrapper around model_; shared across env copies
  // (stateless Evaluate, so sharing never changes results).
  std::shared_ptr<ResilientCostModel> resilient_;
  double baseline_runtime_s_;
  Objective objective_;
  EvalResult last_eval_;
  std::int64_t num_evaluations_ = 0;
  double best_reward_ = 0.0;
  Partition best_partition_;
};

// Solver-repair step of a rollout, without any environment interaction:
// fills `rollout.corrected` and `rollout.solver_success` using the *given*
// solver instance (parallel rollout collection hands each task a private
// solver -- CpSolver is stateful and must not be shared across threads).
// In SAMPLE/FIX mode the rollout's final-iteration actions and log-probs
// are replaced by the solver's (valid) assignment, which is the action that
// actually earned the reward.
void CorrectRollout(GraphContext& context, CpSolver& solver,
                    RlConfig::SolverMode mode, Rollout& rollout, Rng& rng);

// Returns the partition a corrected rollout is scored on: the raw candidate
// when the solver is bypassed (kNone), the solver-corrected partition
// otherwise.
const Partition& ScoredPartition(const Rollout& rollout,
                                 RlConfig::SolverMode mode);

// Runs the full candidate -> corrected -> reward step for one rollout,
// filling `rollout.corrected`, `rollout.solver_success`, and
// `rollout.reward`.  Sequential convenience wrapper over CorrectRollout +
// PartitionEnv::Reward using the context's shared solver.
void CorrectAndScore(GraphContext& context, PartitionEnv& env,
                     RlConfig::SolverMode mode, Rollout& rollout, Rng& rng);

}  // namespace mcm
