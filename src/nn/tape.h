// Define-by-run reverse-mode autodiff over dense matrices.
//
// Values are computed eagerly as ops are recorded; `Backward` replays the
// tape in reverse, accumulating gradients.  The op set is exactly what the
// paper's networks need: affine layers, ReLU/tanh, row gathers, the
// GraphSAGE mean-neighbor aggregation, row/column reductions, and fused
// PPO / value losses with hand-derived gradients (verified against finite
// differences in tests/nn_test.cc).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/matrix.h"

namespace mcm {

// Compressed sparse neighbor lists for the GraphSAGE aggregation step.
//
// Lifetime contract: NeighborMeanOp's backward closure captures the raw
// `NeighborLists*` it was recorded with -- the lists must stay alive and
// unmodified until the tape they were recorded on is destroyed (in practice
// they live in GraphContext, which outlives every per-episode tape).
// Consistency of offsets/indices is MCM_CHECKed at op-record time, not at
// backward time.
struct NeighborLists {
  // CSR layout: neighbors of row i are indices[offsets[i] .. offsets[i+1]).
  std::vector<int> offsets;
  std::vector<int> indices;

  // Built by Finalize(), consumed by NeighborMeanOp: inv_degree[i] =
  // 1 / |N(i)| (0 for isolated rows), hoisting the division out of both
  // passes.
  std::vector<float> inv_degree;

  int num_rows() const { return static_cast<int>(offsets.size()) - 1; }

  // Validates offsets/indices (MCM_CHECK on malformed input) and builds
  // inv_degree.  BuildNeighborLists returns finalized lists; call this after
  // filling offsets/indices by hand.  Must not race with readers: finalize
  // before sharing the lists across threads.
  void Finalize();
  bool finalized() const {
    return inv_degree.size() == static_cast<std::size_t>(num_rows());
  }
};

using VarId = int;

class Tape {
 public:
  // Construction pre-reserves node storage at this thread's high-water node
  // count, and destruction retires every node's value/gradient storage into
  // the per-thread ScratchArena -- the per-episode tape build/tear-down in
  // rollouts stops churning the allocator after the first episode.
  Tape();
  ~Tape();
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // Leaf holding a *copy* of `value`; no gradient is exposed to the caller.
  VarId Constant(Matrix value);
  // Leaf bound to persistent external storage: gradients accumulate into
  // `*grad` (which must outlive the tape and match value's shape).
  VarId Parameter(const Matrix* value, Matrix* grad);

  const Matrix& value(VarId id) const { return nodes_[static_cast<std::size_t>(id)].value; }
  const Matrix& grad(VarId id) const { return nodes_[static_cast<std::size_t>(id)].grad; }

  // out = a @ b
  VarId MatMulOp(VarId a, VarId b);
  // out = a + b (same shape)
  VarId AddOp(VarId a, VarId b);
  // out[i,:] = a[i,:] + bias[0,:]
  VarId AddRowBroadcast(VarId a, VarId bias);
  // Elementwise nonlinearities.
  VarId ReluOp(VarId a);
  VarId TanhOp(VarId a);
  // out[i,:] = a[rows[i],:].  Rows may repeat and come in any order; the
  // backward pass scatter-adds into a serially in i order.
  VarId GatherRowsOp(VarId a, std::span<const int> rows);
  // out[i,:] = mean over j in neighbors(i) of a[j,:]; zero row when a node
  // has no neighbors.  `lists` must be finalized (see NeighborLists), stay
  // alive, and stay unmodified until this tape is destroyed: the backward
  // closure holds the raw pointer.  Record-time MCM_CHECKs enforce shape and
  // offsets/indices consistency.
  VarId NeighborMeanOp(VarId a, const NeighborLists* lists);
  // out = mean over rows of a -> [1 x cols].
  VarId MeanRowsOp(VarId a);
  // Row-wise L2 normalization (GraphSAGE normalizes embeddings per layer).
  VarId L2NormalizeRowsOp(VarId a, float epsilon = 1e-6f);

  // Fused PPO clipped-surrogate + entropy objective over per-node actions.
  //   logits:     [N x C] policy outputs.
  //   actions:    chosen chip per node.
  //   advantage:  shared scalar advantage for this sample.
  //   old_logp:   per-node log-prob under the behavior policy.
  // Returns scalar loss:
  //   -(1/N) sum_i min(r_i A, clip(r_i, 1-eps, 1+eps) A)
  //   - entropy_coef * (1/N) sum_i H(p_i).
  VarId PpoLossOp(VarId logits, std::span<const int> actions,
                  double advantage, std::span<const float> old_logp,
                  double clip_epsilon, double entropy_coef);

  // Fused 0.5 * (pred - target)^2 for a [1 x 1] prediction.
  VarId SquaredErrorOp(VarId pred, double target);

  // Weighted sum of scalar losses -> scalar.
  VarId AddScaled(VarId a, double wa, VarId b, double wb);

  // Runs reverse accumulation from scalar `loss` (seed gradient 1).
  // Parameter leaves accumulate into their external grad matrices.
  void Backward(VarId loss);

  // Per-row log-softmax of a recorded value (no gradient); used to snapshot
  // behavior-policy log-probs when sampling rollouts.
  static std::vector<float> RowLogProbs(const Matrix& logits,
                                        std::span<const int> actions);
  // Row-wise softmax (no gradient), for turning logits into the probability
  // matrix P handed to the constraint solver.
  static Matrix RowSoftmax(const Matrix& logits);

  std::size_t size() const { return nodes_.size(); }

 private:
  struct TapeNode {
    Matrix value;
    Matrix grad;
    // Accumulates into upstream grads; empty for leaves.
    std::function<void()> backward;
    // For Parameter leaves.
    Matrix* external_grad = nullptr;
  };

  VarId Emplace(Matrix value);
  Matrix& mutable_grad(VarId id) {
    return nodes_[static_cast<std::size_t>(id)].grad;
  }

  std::vector<TapeNode> nodes_;
};

}  // namespace mcm
