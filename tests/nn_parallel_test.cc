// Tests for the bit-identical-at-any-thread-count contract of the NN kernels:
// the GEMMs (the only kernels that fan out), the NeighborMean forward and
// backward (against a serial scatter reference), Adam, and a full PPO update.
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "nn/matrix.h"
#include "nn/modules.h"
#include "nn/tape.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/ppo.h"
#include "runtime/thread_pool.h"
#include "search/search.h"

namespace mcm {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (float& x : m.data) x = static_cast<float>(rng.Normal(0.0, scale));
  return m;
}

// Restores the default thread count on scope exit so tests cannot leak an
// override into each other.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetDefaultThreadCount(previous_); }

 private:
  const int previous_ = DefaultThreadCount();
};

// Shapes large enough to take the parallel GEMM paths (>= 2^22 flops, rows
// beyond one panel for MatMul/TransB, reduction beyond two slabs for TransA).
TEST(NnParallelTest, GemmBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(21);
  const Matrix a = RandomMatrix(600, 640, rng);   // [m x k]
  const Matrix b = RandomMatrix(640, 128, rng);   // [k x n]
  const Matrix c = RandomMatrix(600, 128, rng);   // [m x n]
  const Matrix bt = RandomMatrix(128, 640, rng);  // [n x k]

  auto run = [&](int threads) {
    SetDefaultThreadCount(threads);
    Matrix ab, atc, abt;
    MatMul(a, b, ab);          // Row-panel path.
    MatMulTransA(a, c, atc);   // k-slab path (reduction over the 600 rows).
    MatMulTransB(a, bt, abt);  // Row-panel path.
    return std::make_tuple(std::move(ab), std::move(atc), std::move(abt));
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(std::get<0>(one).data, std::get<0>(four).data);
  EXPECT_EQ(std::get<1>(one).data, std::get<1>(four).data);
  EXPECT_EQ(std::get<2>(one).data, std::get<2>(four).data);
}

// Random CSR over `rows` nodes with degrees in [0, max_degree]; duplicate
// neighbors are allowed (the op contract permits them).
NeighborLists RandomLists(int rows, int max_degree, Rng& rng) {
  NeighborLists lists;
  lists.offsets.push_back(0);
  for (int i = 0; i < rows; ++i) {
    const int degree = static_cast<int>(rng.UniformInt(0, max_degree));
    for (int e = 0; e < degree; ++e) {
      lists.indices.push_back(static_cast<int>(rng.UniformInt(0, rows - 1)));
    }
    lists.offsets.push_back(static_cast<int>(lists.indices.size()));
  }
  lists.Finalize();
  return lists;
}

TEST(NnParallelTest, NeighborMeanForwardBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(22);
  const NeighborLists lists = RandomLists(512, 6, rng);
  const Matrix x = RandomMatrix(512, 64, rng);
  auto run = [&](int threads) {
    SetDefaultThreadCount(threads);
    Tape tape;
    return tape.value(tape.NeighborMeanOp(tape.Constant(x), &lists));
  };
  const Matrix one = run(1);
  const Matrix four = run(4);
  EXPECT_EQ(one.data, four.data);
}

// Backward fuzz: the op's backward must reproduce the serial scatter
// reference EXACTLY (same floats), across random graphs with isolated nodes
// and duplicate edges, with the readout GEMMs on a 4-thread pool.
TEST(NnParallelTest, NeighborMeanBackwardMatchesScatterReferenceExactly) {
  ThreadCountGuard guard;
  SetDefaultThreadCount(4);
  Rng rng(23);
  for (int round = 0; round < 8; ++round) {
    const int rows = 257 + 37 * round;
    const int cols = 64;
    const NeighborLists lists = RandomLists(rows, 5 + round, rng);
    const Matrix x = RandomMatrix(rows, cols, rng);

    Matrix value = x;
    Matrix grad(rows, cols);
    Tape tape;
    const VarId xv = tape.Parameter(&value, &grad);
    const VarId y = tape.NeighborMeanOp(xv, &lists);
    // Scalar readout: column sums of the row means, so every dy element is
    // nonzero and the upstream gradient is nontrivial.
    Matrix ones(cols, 1);
    std::fill(ones.data.begin(), ones.data.end(), 1.0f);
    const VarId loss =
        tape.MatMulOp(tape.MeanRowsOp(y), tape.Constant(ones));
    tape.Backward(loss);

    // Reference: a serial scatter with the division done per row, applied to
    // the tape's own upstream gradient dy.
    const Matrix& dy = tape.grad(y);
    Matrix expect(rows, cols);
    for (int i = 0; i < rows; ++i) {
      const int begin = lists.offsets[static_cast<std::size_t>(i)];
      const int end = lists.offsets[static_cast<std::size_t>(i) + 1];
      if (begin == end) continue;
      const float inv = 1.0f / static_cast<float>(end - begin);
      const auto drow = dy.row(i);
      for (int e = begin; e < end; ++e) {
        auto dst = expect.row(lists.indices[static_cast<std::size_t>(e)]);
        for (int j = 0; j < cols; ++j) dst[j] += inv * drow[j];
      }
    }
    EXPECT_EQ(grad.data, expect.data) << "round " << round;
  }
}

TEST(NnParallelTest, AdamStepBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  auto run = [](int threads) {
    SetDefaultThreadCount(threads);
    Rng rng(24);
    Mlp net("mlp", {64, 128, 128, 8}, rng);
    Adam adam(net.Params());
    for (int step = 0; step < 3; ++step) {
      for (Param* p : net.Params()) {
        for (float& g : p->grad.data) {
          g = static_cast<float>(rng.Normal(0.0, 0.5));
        }
      }
      adam.Step();
    }
    return SnapshotParams(net.Params());
  };
  const std::vector<Matrix> one = run(1);
  const std::vector<Matrix> four = run(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t p = 0; p < one.size(); ++p) {
    EXPECT_EQ(one[p].data, four[p].data) << "param " << p;
  }
}

// ---- Full PPO update across thread counts -----------------------------------

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

struct PpoRunResult {
  std::vector<std::vector<double>> rewards;
  std::vector<double> mean_losses;
  std::vector<Matrix> params;
};

// As tests/runtime_test.cc's RunPpo, on the tiny policy above.
PpoRunResult RunPpoAtThreads(int threads, int iterations) {
  SetDefaultThreadCount(threads);
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  AnalyticalCostModel model{McmConfig{}};
  GraphContext context(g, 36);
  Rng rng(3);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, context.solver(), rng);
  PartitionEnv env(g, model, baseline.eval.runtime_s);
  PolicyNetwork policy(TinyConfig());
  PpoTrainer trainer(policy, Rng(7));
  PpoRunResult out;
  for (int it = 0; it < iterations; ++it) {
    const PpoTrainer::IterationResult result = trainer.Iterate(context, env);
    out.rewards.push_back(result.rewards);
    out.mean_losses.push_back(result.mean_loss);
  }
  out.params = SnapshotParams(policy.Params());
  return out;
}

TEST(NnParallelTest, PpoUpdateBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const PpoRunResult one = RunPpoAtThreads(/*threads=*/1, /*iterations=*/2);
  const PpoRunResult four = RunPpoAtThreads(/*threads=*/4, /*iterations=*/2);

  ASSERT_EQ(one.rewards.size(), four.rewards.size());
  for (std::size_t it = 0; it < one.rewards.size(); ++it) {
    EXPECT_EQ(one.rewards[it], four.rewards[it]) << "iteration " << it;
    EXPECT_EQ(one.mean_losses[it], four.mean_losses[it]) << "iteration " << it;
  }
  ASSERT_EQ(one.params.size(), four.params.size());
  for (std::size_t p = 0; p < one.params.size(); ++p) {
    EXPECT_EQ(one.params[p].data, four.params[p].data) << "param " << p;
  }
}

}  // namespace
}  // namespace mcm
