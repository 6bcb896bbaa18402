#include "nn/tape.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/arena.h"

namespace mcm {
namespace {

// Per-thread high-water mark of tape sizes, used to pre-reserve node storage
// so recording an episode never regrows the node vector.
std::size_t& TapeReserveHint() {
  thread_local std::size_t hint = 0;
  return hint;
}

void AccumulateInto(Matrix& dst, const Matrix& src) {
  MCM_CHECK(dst.SameShape(src));
  float* d = dst.data.data();
  const float* s = src.data.data();
  for (std::size_t i = 0; i < dst.data.size(); ++i) d[i] += s[i];
}

// Stable log-sum-exp of one logits row: the exact float every log-softmax
// here subtracts, log p_j = z_j - lse.
float RowLogSumExp(std::span<const float> row) {
  float max_z = row[0];
  for (float z : row) max_z = std::max(max_z, z);
  double sum = 0.0;
  for (float z : row) sum += std::exp(static_cast<double>(z - max_z));
  return static_cast<float>(max_z + std::log(sum));
}

// Row-wise stable log-softmax into `out` (same shape as logits).
void RowLogSoftmax(const Matrix& logits, Matrix& out) {
  out = ScratchArena::AcquireUninit(logits.rows, logits.cols);
  for (int i = 0; i < logits.rows; ++i) {
    const auto row = logits.row(i);
    const float lse = RowLogSumExp(row);
    auto out_row = out.row(i);
    for (int j = 0; j < logits.cols; ++j) out_row[j] = row[j] - lse;
  }
}

// What PpoLossOp's backward needs of one row, recorded by its forward.
struct PpoRowCache {
  float lse;  // log p_j = z_j - lse, rebuilt bit-exactly from the logits.
  int action;
  double ratio_grad;  // d(r A)/d log p(action); zero when the clip is active.
  double entropy;
};

}  // namespace

void NeighborLists::Finalize() {
  const int n = num_rows();
  MCM_CHECK_GE(n, 0) << "NeighborLists::Finalize: empty offsets";
  MCM_CHECK_EQ(offsets.front(), 0);
  for (int i = 0; i < n; ++i) {
    MCM_CHECK_LE(offsets[static_cast<std::size_t>(i)],
                 offsets[static_cast<std::size_t>(i) + 1])
        << "NeighborLists::Finalize: offsets not monotone at row " << i;
  }
  MCM_CHECK_EQ(static_cast<std::size_t>(offsets.back()), indices.size());
  for (const int j : indices) {
    MCM_CHECK(j >= 0 && j < n)
        << "NeighborLists::Finalize: neighbor index " << j << " out of range";
  }

  inv_degree.assign(static_cast<std::size_t>(n), 0.0f);
  for (int i = 0; i < n; ++i) {
    const int degree = offsets[static_cast<std::size_t>(i) + 1] -
                       offsets[static_cast<std::size_t>(i)];
    if (degree > 0) {
      inv_degree[static_cast<std::size_t>(i)] =
          1.0f / static_cast<float>(degree);
    }
  }
}

Tape::Tape() { nodes_.reserve(TapeReserveHint()); }

Tape::~Tape() {
  std::size_t& hint = TapeReserveHint();
  hint = std::max(hint, nodes_.size());
  // Newest node first.  A PPO minibatch tape holds more buffers than the
  // pool keeps, and the ones past the cap are freed.  Freeing the oldest
  // ones leaves the newest, at the top of the heap, pooled and in place;
  // freeing the newest let glibc trim the heap top after every minibatch
  // and page it back in on the next (5x the page faults in pretraining).
  for (auto node = nodes_.rbegin(); node != nodes_.rend(); ++node) {
    ScratchArena::Release(std::move(node->grad));
    ScratchArena::Release(std::move(node->value));
  }
}

VarId Tape::Emplace(Matrix value) {
  TapeNode node;
  node.grad = ScratchArena::AcquireZeroed(value.rows, value.cols);
  node.value = std::move(value);
  nodes_.push_back(std::move(node));
  return static_cast<VarId>(nodes_.size() - 1);
}

VarId Tape::Constant(Matrix value) { return Emplace(std::move(value)); }

VarId Tape::Parameter(const Matrix* value, Matrix* grad) {
  MCM_CHECK(value != nullptr && grad != nullptr);
  MCM_CHECK(value->SameShape(*grad));
  const VarId id = Emplace(*value);
  nodes_[static_cast<std::size_t>(id)].external_grad = grad;
  return id;
}

VarId Tape::MatMulOp(VarId a, VarId b) {
  Matrix out;
  MatMul(value(a), value(b), out);
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, b, id] {
    const Matrix& dout = grad(id);
    MatMulTransB(dout, value(b), mutable_grad(a), /*accumulate=*/true);
    MatMulTransA(value(a), dout, mutable_grad(b), /*accumulate=*/true);
  };
  return id;
}

VarId Tape::AddOp(VarId a, VarId b) {
  MCM_CHECK(value(a).SameShape(value(b)));
  Matrix out = ScratchArena::AcquireCopy(value(a));
  AccumulateInto(out, value(b));
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, b, id] {
    AccumulateInto(mutable_grad(a), grad(id));
    AccumulateInto(mutable_grad(b), grad(id));
  };
  return id;
}

VarId Tape::AddRowBroadcast(VarId a, VarId bias) {
  const Matrix& av = value(a);
  const Matrix& bv = value(bias);
  MCM_CHECK_EQ(bv.rows, 1);
  MCM_CHECK_EQ(bv.cols, av.cols);
  Matrix out = ScratchArena::AcquireCopy(av);
  for (int i = 0; i < out.rows; ++i) {
    auto row = out.row(i);
    for (int j = 0; j < out.cols; ++j) row[j] += bv.at(0, j);
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, bias, id] {
    const Matrix& dout = grad(id);
    AccumulateInto(mutable_grad(a), dout);
    // The bias gradient is a column reduction in row-ascending order.
    Matrix& dbias = mutable_grad(bias);
    for (int i = 0; i < dout.rows; ++i) {
      const auto row = dout.row(i);
      for (int j = 0; j < dout.cols; ++j) dbias.at(0, j) += row[j];
    }
  };
  return id;
}

VarId Tape::ReluOp(VarId a) {
  const Matrix& av = value(a);
  Matrix out = ScratchArena::AcquireUninit(av.rows, av.cols);
  {
    const float* src = av.data.data();
    float* dst = out.data.data();
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      dst[i] = std::max(src[i], 0.0f);
    }
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, id] {
    const Matrix& dout = grad(id);
    const Matrix& av = value(a);
    Matrix& da = mutable_grad(a);
    const float* d = dout.data.data();
    const float* x = av.data.data();
    float* g = da.data.data();
    for (std::size_t i = 0; i < dout.data.size(); ++i) {
      if (x[i] > 0.0f) g[i] += d[i];
    }
  };
  return id;
}

VarId Tape::TanhOp(VarId a) {
  const Matrix& av = value(a);
  Matrix out = ScratchArena::AcquireUninit(av.rows, av.cols);
  {
    const float* src = av.data.data();
    float* dst = out.data.data();
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      dst[i] = std::tanh(src[i]);
    }
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, id] {
    const Matrix& dout = grad(id);
    const Matrix& y = value(id);
    Matrix& da = mutable_grad(a);
    const float* d = dout.data.data();
    const float* yv = y.data.data();
    float* g = da.data.data();
    for (std::size_t i = 0; i < dout.data.size(); ++i) {
      g[i] += d[i] * (1.0f - yv[i] * yv[i]);
    }
  };
  return id;
}

VarId Tape::GatherRowsOp(VarId a, std::span<const int> rows) {
  const Matrix& av = value(a);
  Matrix out = ScratchArena::AcquireUninit(static_cast<int>(rows.size()),
                                           av.cols);
  for (int i = 0; i < out.rows; ++i) {
    MCM_CHECK(rows[i] >= 0 && rows[i] < av.rows);
    const auto src = av.row(rows[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward =
      [this, a, id, rows = std::vector<int>(rows.begin(), rows.end())] {
        const Matrix& dout = grad(id);
        Matrix& da = mutable_grad(a);
        for (int i = 0; i < dout.rows; ++i) {
          const auto drow = dout.row(i);
          auto dst = da.row(rows[static_cast<std::size_t>(i)]);
          for (int j = 0; j < dout.cols; ++j) dst[j] += drow[j];
        }
      };
  return id;
}

// MCM_CONTRACT(deterministic): both passes are serial loops over the forward
// CSR in (row, edge-position) order.
VarId Tape::NeighborMeanOp(VarId a, const NeighborLists* lists) {
  const Matrix& av = value(a);
  MCM_CHECK(lists != nullptr);
  MCM_CHECK_EQ(lists->num_rows(), av.rows);
  // Record-time consistency checks: the backward closure only holds the raw
  // pointer, so malformed lists must fail here, not inside Backward().
  MCM_CHECK(lists->finalized())
      << "NeighborMeanOp: call NeighborLists::Finalize() before recording";
  MCM_CHECK_EQ(lists->offsets.front(), 0);
  MCM_CHECK_EQ(static_cast<std::size_t>(lists->offsets.back()),
               lists->indices.size());

  const int cols = av.cols;
  Matrix out = ScratchArena::AcquireUninit(av.rows, cols);
  for (int i = 0; i < av.rows; ++i) {
    const int begin = lists->offsets[static_cast<std::size_t>(i)];
    const int end = lists->offsets[static_cast<std::size_t>(i) + 1];
    auto row = out.row(i);
    std::fill(row.begin(), row.end(), 0.0f);
    if (begin == end) continue;
    for (int e = begin; e < end; ++e) {
      const auto src = av.row(lists->indices[static_cast<std::size_t>(e)]);
      for (int j = 0; j < cols; ++j) row[j] += src[j];
    }
    const float inv = lists->inv_degree[static_cast<std::size_t>(i)];
    for (int j = 0; j < cols; ++j) row[j] *= inv;
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, lists, id] {
    const Matrix& dout = grad(id);
    Matrix& da = mutable_grad(a);
    const int cols = dout.cols;
    for (int i = 0; i < dout.rows; ++i) {
      const int begin = lists->offsets[static_cast<std::size_t>(i)];
      const int end = lists->offsets[static_cast<std::size_t>(i) + 1];
      const float inv = lists->inv_degree[static_cast<std::size_t>(i)];
      const auto drow = dout.row(i);
      for (int e = begin; e < end; ++e) {
        auto dst = da.row(lists->indices[static_cast<std::size_t>(e)]);
        for (int c = 0; c < cols; ++c) dst[c] += inv * drow[c];
      }
    }
  };
  return id;
}

VarId Tape::MeanRowsOp(VarId a) {
  const Matrix& av = value(a);
  MCM_CHECK_GT(av.rows, 0);
  // The [1 x C] output is a reduction in row-ascending order.
  Matrix out = ScratchArena::AcquireZeroed(1, av.cols);
  for (int i = 0; i < av.rows; ++i) {
    const auto row = av.row(i);
    for (int j = 0; j < av.cols; ++j) out.at(0, j) += row[j];
  }
  const float inv = 1.0f / static_cast<float>(av.rows);
  for (float& x : out.data) x *= inv;
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, id, inv] {
    const Matrix& dout = grad(id);
    Matrix& da = mutable_grad(a);
    for (int i = 0; i < da.rows; ++i) {
      auto dst = da.row(i);
      for (int j = 0; j < da.cols; ++j) dst[j] += inv * dout.at(0, j);
    }
  };
  return id;
}

VarId Tape::L2NormalizeRowsOp(VarId a, float epsilon) {
  const Matrix& av = value(a);
  Matrix out = ScratchArena::AcquireUninit(av.rows, av.cols);
  std::vector<float> inv_norms(static_cast<std::size_t>(av.rows));
  for (int i = 0; i < av.rows; ++i) {
    const auto row = av.row(i);
    double sq = 0.0;
    for (float x : row) sq += static_cast<double>(x) * x;
    const auto inv = static_cast<float>(1.0 / std::sqrt(sq + epsilon));
    inv_norms[static_cast<std::size_t>(i)] = inv;
    auto orow = out.row(i);
    for (int j = 0; j < av.cols; ++j) orow[j] = row[j] * inv;
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward =
      [this, a, id, inv_norms = std::move(inv_norms)] {
        const Matrix& dout = grad(id);
        const Matrix& y = value(id);
        Matrix& da = mutable_grad(a);
        for (int i = 0; i < dout.rows; ++i) {
          const auto drow = dout.row(i);
          const auto yrow = y.row(i);
          auto dst = da.row(i);
          float dot = 0.0f;
          for (int j = 0; j < dout.cols; ++j) dot += drow[j] * yrow[j];
          const float inv = inv_norms[static_cast<std::size_t>(i)];
          for (int j = 0; j < dout.cols; ++j) {
            dst[j] += inv * (drow[j] - yrow[j] * dot);
          }
        }
      };
  return id;
}

VarId Tape::PpoLossOp(VarId logits, std::span<const int> actions,
                      double advantage, std::span<const float> old_logp,
                      double clip_epsilon, double entropy_coef) {
  const Matrix& z = value(logits);
  const int n = z.rows;
  MCM_CHECK_EQ(static_cast<int>(actions.size()), n);
  MCM_CHECK_EQ(static_cast<int>(old_logp.size()), n);

  // The backward reuses each row's log-sum-exp, ratio gradient and entropy
  // instead of redoing the log-softmax.
  std::vector<PpoRowCache> rows(static_cast<std::size_t>(n));
  // The objective/entropy sums are scalar reductions in row order.
  double objective_sum = 0.0;
  double entropy_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto zrow = z.row(i);
    const float lse = RowLogSumExp(zrow);
    const float lp_action = zrow[actions[i]] - lse;
    const double r = std::exp(static_cast<double>(
        lp_action - old_logp[static_cast<std::size_t>(i)]));
    const double clipped =
        std::clamp(r, 1.0 - clip_epsilon, 1.0 + clip_epsilon);
    objective_sum += std::min(r * advantage, clipped * advantage);
    // PPO ratio gradient: zero when the clip bound is the active min.
    const bool clip_active = (advantage > 0.0 && r > 1.0 + clip_epsilon) ||
                             (advantage < 0.0 && r < 1.0 - clip_epsilon);
    double h = 0.0;
    for (float zj : zrow) {
      const float lp = zj - lse;
      h -= std::exp(static_cast<double>(lp)) * lp;
    }
    entropy_sum += h;
    rows[static_cast<std::size_t>(i)] = {lse, actions[i],
                                         clip_active ? 0.0 : advantage * r, h};
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(-(objective_sum / n) -
                                    entropy_coef * (entropy_sum / n));
  const VarId id = Emplace(std::move(out));

  nodes_[static_cast<std::size_t>(id)].backward =
      [this, logits, id, entropy_coef, rows = std::move(rows)] {
        const float upstream = grad(id).at(0, 0);
        const Matrix& z = value(logits);
        const int n = z.rows;
        Matrix& dz = mutable_grad(logits);
        const float scale = upstream / static_cast<float>(n);
        for (int i = 0; i < n; ++i) {
          const PpoRowCache& row = rows[static_cast<std::size_t>(i)];
          const auto zrow = z.row(i);
          auto dst = dz.row(i);
          for (int j = 0; j < z.cols; ++j) {
            const float lp = zrow[j] - row.lse;
            const double p = std::exp(static_cast<double>(lp));
            // d(-obj)/dz_j = -ratio_grad * (1[j==a] - p_j)
            double g = -row.ratio_grad * ((j == row.action ? 1.0 : 0.0) - p);
            // d(-coef*H)/dz_j = coef * p_j * (log p_j + H)
            g += entropy_coef * p * (lp + row.entropy);
            dst[j] += scale * static_cast<float>(g);
          }
        }
      };
  return id;
}

VarId Tape::SquaredErrorOp(VarId pred, double target) {
  const Matrix& p = value(pred);
  MCM_CHECK_EQ(p.rows, 1);
  MCM_CHECK_EQ(p.cols, 1);
  const double diff = static_cast<double>(p.at(0, 0)) - target;
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(0.5 * diff * diff);
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, pred, id, diff] {
    mutable_grad(pred).at(0, 0) +=
        grad(id).at(0, 0) * static_cast<float>(diff);
  };
  return id;
}

VarId Tape::AddScaled(VarId a, double wa, VarId b, double wb) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  MCM_CHECK(av.SameShape(bv));
  Matrix out = ScratchArena::AcquireUninit(av.rows, av.cols);
  {
    const float* ap = av.data.data();
    const float* bp = bv.data.data();
    float* op = out.data.data();
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      op[i] = static_cast<float>(wa) * ap[i] + static_cast<float>(wb) * bp[i];
    }
  }
  const VarId id = Emplace(std::move(out));
  nodes_[static_cast<std::size_t>(id)].backward = [this, a, b, id, wa, wb] {
    const Matrix& dout = grad(id);
    Matrix& da = mutable_grad(a);
    Matrix& db = mutable_grad(b);
    const float* d = dout.data.data();
    float* ga = da.data.data();
    float* gb = db.data.data();
    for (std::size_t i = 0; i < dout.data.size(); ++i) {
      ga[i] += static_cast<float>(wa) * d[i];
      gb[i] += static_cast<float>(wb) * d[i];
    }
  };
  return id;
}

void Tape::Backward(VarId loss) {
  MCM_CHECK_EQ(value(loss).rows, 1);
  MCM_CHECK_EQ(value(loss).cols, 1);
  mutable_grad(loss).at(0, 0) = 1.0f;
  for (std::size_t i = nodes_.size(); i > 0; --i) {
    TapeNode& node = nodes_[i - 1];
    if (node.backward) node.backward();
    if (node.external_grad != nullptr) {
      AccumulateInto(*node.external_grad, node.grad);
    }
  }
}

Tape::SampledRows Tape::SampleRowSoftmax(const Matrix& logits, Rng& rng) {
  // probs takes the arena's best-fitting buffer and the log-softmax scratch
  // goes back to the pool.  Measured on perfbench bert_search, the other
  // orders and a plain allocation raised peak RSS by 2-8 MB.
  SampledRows out;
  out.probs = ScratchArena::AcquireUninit(logits.rows, logits.cols);
  Matrix logp;
  RowLogSoftmax(logits, logp);
  out.actions.resize(static_cast<std::size_t>(logits.rows));
  out.logp.resize(static_cast<std::size_t>(logits.rows));
  std::vector<double> weights(static_cast<std::size_t>(logits.cols));
  for (int i = 0; i < logits.rows; ++i) {
    const auto lp = logp.row(i);
    auto prow = out.probs.row(i);
    for (int j = 0; j < logits.cols; ++j) {
      prow[j] = std::exp(lp[j]);
      weights[static_cast<std::size_t>(j)] = prow[j];
    }
    const auto action = static_cast<int>(rng.SampleDiscrete(weights));
    out.actions[static_cast<std::size_t>(i)] = action;
    out.logp[static_cast<std::size_t>(i)] = lp[action];
  }
  ScratchArena::Release(std::move(logp));
  return out;
}

}  // namespace mcm
