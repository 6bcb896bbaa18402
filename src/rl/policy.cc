#include "rl/policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "graph/features.h"

namespace mcm {
namespace {

std::vector<int> MlpDims(int in_dim, int hidden_dim, int out_dim,
                         int num_layers) {
  std::vector<int> dims;
  dims.push_back(in_dim);
  for (int i = 0; i < num_layers - 1; ++i) dims.push_back(hidden_dim);
  dims.push_back(out_dim);
  return dims;
}

}  // namespace

GraphContext::GraphContext(const Graph& graph, int num_chips,
                           CpSolver::Options solver_options)
    : graph_(&graph),
      neighbors_(BuildNeighborLists(graph)),
      solver_(graph, num_chips, solver_options) {
  const std::vector<float> raw = ExtractNodeFeatures(graph);
  features_ = Matrix(graph.NumNodes(), kNodeFeatureDim);
  features_.data = raw;
}

PolicyNetwork::PolicyNetwork(const RlConfig& config)
    : config_(config),
      init_rng_(config.seed),
      feature_net_(kNodeFeatureDim, config.hidden_dim, config.gnn_layers,
                   init_rng_),
      policy_head_("policy",
                   MlpDims(config.hidden_dim + config.num_chips,
                           config.hidden_dim, config.num_chips,
                           config.policy_layers),
                   init_rng_),
      value_head_("value",
                  MlpDims(config.hidden_dim, config.hidden_dim, 1, 2),
                  init_rng_) {}

ParamRefs PolicyNetwork::Params() {
  ParamRefs refs = feature_net_.Params();
  for (Param* p : policy_head_.Params()) refs.push_back(p);
  for (Param* p : value_head_.Params()) refs.push_back(p);
  return refs;
}

VarId PolicyNetwork::EmbedGraph(Tape& tape, GraphContext& context) {
  const VarId features = tape.Constant(context.features());
  return feature_net_.Forward(tape, features, &context.neighbors());
}

PolicyNetwork::HeadInput PolicyNetwork::RecordHeadInput(Tape& tape,
                                                        VarId embeddings) {
  const ParamRefs params = policy_head_.Params();  // fc0/w, fc0/b, ...
  const VarId w1 = tape.Parameter(&params[0]->value, &params[0]->grad);
  const VarId b1 = tape.Parameter(&params[1]->value, &params[1]->grad);
  std::vector<int> rows(static_cast<std::size_t>(tape.value(embeddings).cols));
  std::iota(rows.begin(), rows.end(), 0);
  const VarId w_h = tape.GatherRowsOp(w1, rows);
  return {w1, tape.AddRowBroadcast(tape.MatMulOp(embeddings, w_h), b1)};
}

VarId PolicyNetwork::HeadLogits(Tape& tape, const HeadInput& head,
                                const std::vector<int>* prev) {
  VarId pre = head.base;
  if (prev != nullptr) {
    const int offset = tape.value(head.w1).rows - config_.num_chips;
    std::vector<int> rows(prev->size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = offset + (*prev)[i];
    pre = tape.AddOp(pre, tape.GatherRowsOp(head.w1, rows));
  }
  return policy_head_.Forward(tape, pre, /*resume=*/1);
}

VarId PolicyNetwork::ValueHead(Tape& tape, VarId embeddings) {
  return value_head_.Forward(tape, tape.MeanRowsOp(embeddings));
}

Matrix PolicyNetwork::Embed(GraphContext& context) {
  Tape tape;
  return tape.value(EmbedGraph(tape, context));
}

Rollout PolicyNetwork::SampleRollout(GraphContext& context, Rng& rng) {
  return SampleRollout(context, Embed(context), rng);
}

Rollout PolicyNetwork::SampleRollout(GraphContext& context, const Matrix& h,
                                     Rng& rng) {
  Tape tape;
  const VarId embeddings = tape.Constant(h);
  const HeadInput head = RecordHeadInput(tape, embeddings);
  const int n = context.num_nodes();
  const int c = config_.num_chips;

  Rollout rollout;
  Matrix probs;
  std::vector<double> weights(static_cast<std::size_t>(c));
  for (int t = 0; t < config_.decode_iterations; ++t) {
    const VarId logits =
        HeadLogits(tape, head, t == 0 ? nullptr : &rollout.actions.back());
    probs = Tape::RowSoftmax(tape.value(logits));
    std::vector<int> actions(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto row = probs.row(i);
      std::copy(row.begin(), row.end(), weights.begin());
      actions[static_cast<std::size_t>(i)] =
          static_cast<int>(rng.SampleDiscrete(weights));
    }
    rollout.old_logp.push_back(
        Tape::RowLogProbs(tape.value(logits), actions));
    rollout.actions.push_back(std::move(actions));
  }

  rollout.probs.num_nodes = n;
  rollout.probs.num_chips = c;
  rollout.probs.data.assign(probs.data.begin(), probs.data.end());
  // Epsilon-mix with uniform: the behavior distribution the solver samples
  // from (and whose log-probs are recorded when retargeting at y').
  const double mix = config_.exploration_mix;
  if (mix > 0.0) {
    for (double& p : rollout.probs.data) {
      p = (1.0 - mix) * p + mix / c;
    }
  }
  rollout.candidate = Partition::Empty(n, c);
  rollout.candidate.assignment = rollout.actions.back();
  rollout.value_pred =
      static_cast<double>(tape.value(ValueHead(tape, embeddings)).at(0, 0));
  return rollout;
}

VarId PolicyNetwork::BuildLoss(Tape& tape, GraphContext& context,
                               const Rollout& rollout) {
  const Rollout* one[] = {&rollout};
  return BuildMinibatchLoss(tape, context, one);
}

VarId PolicyNetwork::BuildMinibatchLoss(
    Tape& tape, GraphContext& context,
    std::span<const Rollout* const> rollouts) {
  MCM_CHECK(!rollouts.empty());
  const VarId h = EmbedGraph(tape, context);
  // Iteration 0 (no previous actions) and the value head depend only on h,
  // so every rollout shares one copy of each.
  const HeadInput head = RecordHeadInput(tape, h);
  const VarId first_logits = HeadLogits(tape, head, nullptr);
  const VarId value = ValueHead(tape, h);
  const double inv_batch = 1.0 / static_cast<double>(rollouts.size());
  VarId total = -1;
  for (const Rollout* rollout : rollouts) {
    VarId sample_loss = -1;
    for (std::size_t t = 0; t < rollout->actions.size(); ++t) {
      const VarId logits =
          t == 0 ? first_logits
                 : HeadLogits(tape, head, &rollout->actions[t - 1]);
      const VarId ppo = tape.PpoLossOp(
          logits, rollout->actions[t], rollout->advantage,
          rollout->old_logp[t], config_.clip_epsilon, config_.entropy_coef);
      sample_loss =
          sample_loss < 0 ? ppo : tape.AddScaled(sample_loss, 1.0, ppo, 1.0);
    }
    const VarId value_loss = tape.SquaredErrorOp(value, rollout->reward);
    sample_loss =
        tape.AddScaled(sample_loss, 1.0, value_loss, config_.value_coef);
    total = total < 0
                ? tape.AddScaled(sample_loss, inv_batch, sample_loss, 0.0)
                : tape.AddScaled(total, 1.0, sample_loss, inv_batch);
  }
  return total;
}

}  // namespace mcm
