// The paper's policy: a GraphSAGE feature network producing per-node
// embeddings h_G, and a feed-forward policy network mapping each node's
// embedding (plus an encoding of the node's action in the previous decode
// iteration) to a probability distribution over the C chips.  A value head
// over the mean-pooled graph embedding provides the PPO baseline.
//
// Decoding follows Equation (7): an iterative, non-autoregressive process.
// All N nodes are sampled in parallel each iteration; iteration t conditions
// on the full action vector y^(t-1), and the process repeats T times
// (T << N).  The head's first layer takes [h | onehot(y^(t-1))]; it is
// computed as h·W1 plus one gathered row of W1 per node, never as a one-hot
// matrix.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "nn/modules.h"
#include "nn/tape.h"
#include "solver/cp_solver.h"
#include "solver/modes.h"

namespace mcm {

// Architecture and PPO hyper-parameters.  Defaults are the paper's
// configuration (8x128 GraphSAGE, 2x128 policy FFN, PPO with 20 rollouts /
// 4 minibatches / 10 epochs).
struct RlConfig {
  int num_chips = 36;
  int gnn_layers = 8;
  int hidden_dim = 128;
  int policy_layers = 2;
  int decode_iterations = 2;  // T in Eq. (7).

  int rollouts_per_update = 20;
  int minibatches = 4;
  int epochs = 10;
  double clip_epsilon = 0.2;
  double entropy_coef = 0.01;
  double value_coef = 0.5;
  double learning_rate = 3e-4;

  // The paper reports FIX mode outperforming SAMPLE (Section 5.1); on this
  // substrate the ablation bench (bench/ablation_fix_vs_sample) finds the
  // opposite at small sample budgets -- an untrained policy's candidate
  // anchors skew FIX-mode repairs -- so SAMPLE is the default here.  kNone
  // bypasses the solver entirely: the paper's "RL without constraint
  // solver" ablation, where invalid candidates earn zero reward.
  enum class SolverMode { kFix, kSample, kNone };
  SolverMode solver_mode = SolverMode::kSample;

  // Fraction of uniform distribution mixed into the emitted P before it is
  // handed to the constraint solver (epsilon-greedy exploration).  Without
  // it an untrained policy's arbitrary concentration explores far less of
  // the partition space than uniform random search.
  double exploration_mix = 0.10;

  std::uint64_t seed = 1;

  // A small configuration for single-core benches; identical shapes, less
  // compute.  Scaled values can still be overridden field by field.
  static RlConfig Quick() {
    RlConfig config;
    config.gnn_layers = 3;
    config.hidden_dim = 48;
    config.epochs = 4;
    config.minibatches = 2;
    return config;
  }
};

// Per-graph immutable state shared across rollouts and updates: features,
// neighbor lists, and a solver instance.
class GraphContext {
 public:
  // `solver_options` tunes the embedded CP solver; the partition service
  // uses it to derive a deterministic propagation budget from per-request
  // deadlines (service/handler.cc).
  GraphContext(const Graph& graph, int num_chips,
               CpSolver::Options solver_options = {});

  const Graph& graph() const { return *graph_; }
  const Matrix& features() const { return features_; }
  const NeighborLists& neighbors() const { return neighbors_; }
  CpSolver& solver() { return solver_; }
  int num_nodes() const { return features_.rows; }

 private:
  const Graph* graph_;
  Matrix features_;
  NeighborLists neighbors_;
  CpSolver solver_;
};

// One decode trajectory: the per-iteration sampled actions with their
// behavior-policy log-probs, the resulting candidate partition, and (after
// correction/evaluation) the reward.
struct Rollout {
  // actions[t] is the N-vector of per-node chips sampled at iteration t.
  std::vector<std::vector<int>> actions;
  // old_logp[t][i] = log prob of actions[t][i] under the behavior policy.
  std::vector<std::vector<float>> old_logp;
  // Final-iteration probability matrix P (input to the constraint solver).
  ProbMatrix probs;
  // Candidate y (final-iteration actions) and solver-corrected y'.
  Partition candidate;
  Partition corrected;
  bool solver_success = false;
  double reward = 0.0;   // Throughput improvement of y' (0 when invalid).
  double advantage = 0.0;
  double value_pred = 0.0;
};

class PolicyNetwork {
 public:
  explicit PolicyNetwork(const RlConfig& config);

  const RlConfig& config() const { return config_; }
  ParamRefs Params();

  // The GraphSAGE embedding h_G [N x H] under the current parameters.  It
  // depends only on the graph and the feature-net weights, so callers that
  // decode many rollouts between parameter updates compute it once and pass
  // it to SampleRollout (PpoTrainer embeds once per rollout batch).
  Matrix Embed(GraphContext& context);

  // Runs the full T-iteration decode over `h` = Embed(context), sampling
  // actions, and returns the rollout skeleton (candidate partition filled;
  // reward left to the env).  `h` must come from the current parameters.
  Rollout SampleRollout(GraphContext& context, const Matrix& h, Rng& rng);
  // SampleRollout(context, Embed(context), rng).
  Rollout SampleRollout(GraphContext& context, Rng& rng);

  // Recomputes, under the *current* parameters, the total PPO surrogate +
  // entropy loss of a rollout (summed over decode iterations) and the value
  // loss; records everything on `tape` for backprop.
  VarId BuildLoss(Tape& tape, GraphContext& context, const Rollout& rollout);

  // Mean loss over a minibatch of rollouts of the same graph; the (costly)
  // feature-network pass is recorded once and shared by all rollouts.
  VarId BuildMinibatchLoss(Tape& tape, GraphContext& context,
                           std::span<const Rollout* const> rollouts);

 private:
  // Records the feature network on the tape, returning per-node embeddings.
  VarId EmbedGraph(Tape& tape, GraphContext& context);
  // The Eq. (7) head, factored over the shared embedding h [N x H].  Its
  // first layer [h | onehot(prev)]·W1 + b1 equals h·W1[0, H) + b1 plus row
  // H + prev[i] of W1, so the first term is recorded once per tape and each
  // decode iteration after the first adds one row gather of W1.
  struct HeadInput {
    VarId w1;    // policy/fc0/w, [(H + C) x D].
    VarId base;  // h·W1[0, H) + b1, [N x D]: the first layer at t = 0.
  };
  HeadInput RecordHeadInput(Tape& tape, VarId embeddings);
  // Logits [N x C] of one decode iteration; `prev` is null for t = 0.
  VarId HeadLogits(Tape& tape, const HeadInput& head,
                   const std::vector<int>* prev);
  VarId ValueHead(Tape& tape, VarId embeddings);

  RlConfig config_;
  Rng init_rng_;
  GraphSageNetwork feature_net_;
  Mlp policy_head_;
  Mlp value_head_;
};

}  // namespace mcm
