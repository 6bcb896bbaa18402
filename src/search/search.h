// Search strategies over the partition space, all sharing the constraint
// solver and cost model exactly as in the paper's Section 5.1:
//
//   * RandomSearch    -- fixed uniform P, solver in SAMPLE mode.
//   * SimulatedAnnealing -- perturbs a probability distribution, SAMPLE
//                        mode solves, Metropolis acceptance on the reward.
//   * RlSearch        -- PPO training from scratch (or from a pre-trained
//                        checkpoint: zero-shot / fine-tuning).  On a policy
//                        configured with SolverMode::kNone it is the
//                        paper's "RL without constraint solver" ablation:
//                        candidates go straight to evaluation and invalid
//                        ones earn zero reward.
//
// Every strategy emits a SearchTrace: the reward of each evaluated sample
// in order, from which benches derive best-so-far curves (Figures 5/6) and
// samples-to-threshold tables (Tables 2/3).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "graph/graph.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/ppo.h"

namespace mcm {

struct SearchTrace {
  std::string strategy;
  // rewards[k] = throughput improvement of the k-th evaluated sample
  // (0 for invalid samples).
  std::vector<double> rewards;

  // Best reward among the first `samples` entries (0 if none).
  double BestWithin(std::size_t samples) const;
  // Running best-so-far curve.
  std::vector<double> BestSoFar() const;
  // First sample index (1-based) reaching `threshold`, or nullopt.
  std::optional<std::size_t> SamplesToReach(double threshold) const;
};

class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  // Runs `budget` evaluations on (context, env) and returns the trace.
  virtual SearchTrace Run(GraphContext& context, PartitionEnv& env,
                          int budget) = 0;
  virtual std::string name() const = 0;
};

// Uniform distribution + SAMPLE-mode solver.
class RandomSearch final : public SearchStrategy {
 public:
  explicit RandomSearch(Rng rng) : rng_(rng) {}
  SearchTrace Run(GraphContext& context, PartitionEnv& env,
                  int budget) override;
  std::string name() const override { return "Random"; }

 private:
  Rng rng_;
};

// Simulated annealing over the probability-distribution space.
class SimulatedAnnealing final : public SearchStrategy {
 public:
  struct Options {
    // Fraction of nodes whose distribution is re-randomized per proposal.
    double perturb_fraction = 0.05;
    double initial_temperature = 0.2;
    double final_temperature = 0.01;
    // Sharpness of the random re-randomized rows (Dirichlet-ish).
    double concentration = 0.5;
  };

  SimulatedAnnealing(Rng rng, Options options)
      : rng_(rng), options_(options) {}
  explicit SimulatedAnnealing(Rng rng)
      : SimulatedAnnealing(rng, Options{}) {}

  SearchTrace Run(GraphContext& context, PartitionEnv& env,
                  int budget) override;
  std::string name() const override { return "SA"; }

 private:
  Rng rng_;
  Options options_;
};

// Single-node-move local search in partition space.  Each proposal moves
// one node of the incumbent to a random other chip; moves that fail the
// static constraints (IsStaticallyValid) score 0 without an evaluation, and
// valid ones are scored through PartitionEnv::Reward with Metropolis
// acceptance on a geometric temperature schedule.  Complements
// SimulatedAnnealing, which anneals the solver's *probability
// distribution*; HillClimb anneals the partition itself.
class HillClimbSearch final : public SearchStrategy {
 public:
  struct Options {
    double initial_temperature = 0.05;
    double final_temperature = 1e-3;
  };

  HillClimbSearch(Rng rng, Options options) : rng_(rng), options_(options) {}
  explicit HillClimbSearch(Rng rng) : HillClimbSearch(rng, Options{}) {}

  SearchTrace Run(GraphContext& context, PartitionEnv& env,
                  int budget) override;
  std::string name() const override { return "HillClimb"; }

 private:
  Rng rng_;
  Options options_;
};

// RL through the policy's configured solver mode.  Wraps PpoTrainer; when
// constructed with a pre-trained policy the same class serves fine-tuning,
// and EvaluateOnly (via `zero_shot`) serves zero-shot deployment.  A policy
// configured with SolverMode::kNone gives the no-solver ablation.
class RlSearch final : public SearchStrategy {
 public:
  // `policy` is borrowed and is updated in place unless zero_shot.
  RlSearch(PolicyNetwork& policy, Rng rng, bool zero_shot = false,
           std::string label = "RL")
      : trainer_(policy, rng), zero_shot_(zero_shot), label_(std::move(label)) {}

  SearchTrace Run(GraphContext& context, PartitionEnv& env,
                  int budget) override;
  std::string name() const override { return label_; }

 private:
  PpoTrainer trainer_;
  bool zero_shot_;
  std::string label_;
};

}  // namespace mcm
