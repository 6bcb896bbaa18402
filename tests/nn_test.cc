// Tests for the matrix kernels, the autodiff tape (including finite-
// difference gradient checks for every op), modules, Adam, and checkpoints.
#include <cmath>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "nn/arena.h"
#include "nn/matrix.h"
#include "nn/modules.h"
#include "nn/tape.h"
#include "runtime/thread_pool.h"

namespace mcm {
namespace {

Matrix RandomMatrix(int rows, int cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (float& x : m.data) x = static_cast<float>(rng.Normal(0.0, scale));
  return m;
}

TEST(MatrixTest, MatMulMatchesNaive) {
  Rng rng(1);
  const Matrix a = RandomMatrix(7, 5, rng);
  const Matrix b = RandomMatrix(5, 9, rng);
  Matrix out;
  MatMul(a, b, out);
  ASSERT_EQ(out.rows, 7);
  ASSERT_EQ(out.cols, 9);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 9; ++j) {
      float expect = 0.0f;
      for (int k = 0; k < 5; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(out.at(i, j), expect, 1e-4);
    }
  }
}

TEST(MatrixTest, MatMulTransAMatchesNaive) {
  Rng rng(2);
  const Matrix a = RandomMatrix(6, 4, rng);
  const Matrix b = RandomMatrix(6, 3, rng);
  Matrix out;
  MatMulTransA(a, b, out);
  ASSERT_EQ(out.rows, 4);
  ASSERT_EQ(out.cols, 3);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      float expect = 0.0f;
      for (int k = 0; k < 6; ++k) expect += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(out.at(i, j), expect, 1e-4);
    }
  }
}

TEST(MatrixTest, MatMulTransBMatchesNaive) {
  Rng rng(3);
  const Matrix a = RandomMatrix(5, 4, rng);
  const Matrix b = RandomMatrix(7, 4, rng);
  Matrix out;
  MatMulTransB(a, b, out);
  ASSERT_EQ(out.rows, 5);
  ASSERT_EQ(out.cols, 7);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 7; ++j) {
      float expect = 0.0f;
      for (int k = 0; k < 4; ++k) expect += a.at(i, k) * b.at(j, k);
      EXPECT_NEAR(out.at(i, j), expect, 1e-4);
    }
  }
}

TEST(MatrixTest, AccumulateAddsIntoExisting) {
  Rng rng(4);
  const Matrix a = RandomMatrix(3, 3, rng);
  const Matrix b = RandomMatrix(3, 3, rng);
  Matrix out;
  MatMul(a, b, out);
  Matrix twice = out;
  MatMul(a, b, twice, /*accumulate=*/true);
  for (std::size_t i = 0; i < out.data.size(); ++i) {
    EXPECT_NEAR(twice.data[i], 2.0f * out.data[i], 1e-4);
  }
}

// ---- Blocked kernels vs naive references -----------------------------------

// The blocked kernels may reassociate (and, on AVX hosts, contract) float
// sums, so they are compared to the references with a relative tolerance.
void ExpectMatrixNear(const Matrix& got, const Matrix& want) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.cols, want.cols);
  for (std::size_t i = 0; i < want.data.size(); ++i) {
    const double scale =
        std::max({std::abs(static_cast<double>(want.data[i])), 1.0});
    EXPECT_NEAR(got.data[i], want.data[i], 1e-4 * scale) << "element " << i;
  }
}

using GemmKernel = void (*)(const Matrix&, const Matrix&, Matrix&, bool);

// Runs blocked vs reference over every (m, k, n) combination of `dims`,
// covering degenerate single-row/column shapes and every micro-tile edge
// remainder, for both accumulate modes.
void CheckKernelAgainstReference(GemmKernel kernel, GemmKernel reference,
                                 bool a_is_transposed, bool b_is_transposed) {
  const int dims[] = {1, 2, 3, 5, 7, 8, 13, 31, 33, 65};
  Rng rng(77);
  for (int m : dims) {
    for (int k : dims) {
      for (int n : dims) {
        SCOPED_TRACE("shape m=" + std::to_string(m) + " k=" +
                     std::to_string(k) + " n=" + std::to_string(n));
        const Matrix a = a_is_transposed ? RandomMatrix(k, m, rng)
                                         : RandomMatrix(m, k, rng);
        const Matrix b = b_is_transposed ? RandomMatrix(n, k, rng)
                                         : RandomMatrix(k, n, rng);
        Matrix got, want;
        kernel(a, b, got, /*accumulate=*/false);
        reference(a, b, want, /*accumulate=*/false);
        ExpectMatrixNear(got, want);
        // Accumulate into identical pre-filled outputs.
        Matrix seed = RandomMatrix(m, n, rng);
        Matrix got_acc = seed, want_acc = seed;
        kernel(a, b, got_acc, /*accumulate=*/true);
        reference(a, b, want_acc, /*accumulate=*/true);
        ExpectMatrixNear(got_acc, want_acc);
        if (::testing::Test::HasFailure()) return;  // One shape is enough.
      }
    }
  }
}

TEST(MatrixKernelTest, MatMulMatchesReferenceAcrossShapes) {
  CheckKernelAgainstReference(MatMul, MatMulReference, false, false);
}

TEST(MatrixKernelTest, MatMulTransAMatchesReferenceAcrossShapes) {
  CheckKernelAgainstReference(MatMulTransA, MatMulTransAReference, true,
                              false);
}

TEST(MatrixKernelTest, MatMulTransBMatchesReferenceAcrossShapes) {
  CheckKernelAgainstReference(MatMulTransB, MatMulTransBReference, false,
                              true);
}

// The parallel split is a pure function of shape, so results must be
// bit-identical for any worker-pool size.  Shapes are chosen to cross the
// parallel cutover (2*m*n*k >= 2^22 flops).
TEST(MatrixKernelTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  const int saved_threads = DefaultThreadCount();
  Rng rng(31);
  // MatMul / MatMulTransB: 512 rows crosses the row-panel split.
  const Matrix a = RandomMatrix(512, 96, rng);
  const Matrix b = RandomMatrix(96, 80, rng);
  const Matrix bt = RandomMatrix(80, 96, rng);
  // MatMulTransA: 600 reduction rows crosses the k-slab split.
  const Matrix ta = RandomMatrix(600, 64, rng);
  const Matrix tb = RandomMatrix(600, 64, rng);
  std::vector<Matrix> mm, mta, mtb;
  for (int threads : {1, 2, 8}) {
    SetDefaultThreadCount(threads);
    Matrix out;
    MatMul(a, b, out);
    mm.push_back(out);
    MatMulTransA(ta, tb, out);
    mta.push_back(out);
    MatMulTransB(a, bt, out);
    mtb.push_back(out);
  }
  SetDefaultThreadCount(saved_threads);
  for (std::size_t i = 1; i < mm.size(); ++i) {
    EXPECT_EQ(mm[0].data, mm[i].data);
    EXPECT_EQ(mta[0].data, mta[i].data);
    EXPECT_EQ(mtb[0].data, mtb[i].data);
  }
}

TEST(ArenaTest, TapeRetiresAndReusesBuffers) {
  ScratchArena::ClearThreadPool();
  Rng rng(3);
  const Matrix x = RandomMatrix(16, 16, rng);
  auto build = [&] {
    Tape tape;
    const VarId v = tape.Constant(x);
    tape.value(tape.TanhOp(tape.ReluOp(v)));
  };
  build();  // The destructor retires node storage into this thread's pool.
  EXPECT_GT(ScratchArena::PooledBuffers(), 0u);
  const std::size_t reuses_before = ScratchArena::ReuseCount();
  build();  // The second episode must be served from the pool.
  EXPECT_GT(ScratchArena::ReuseCount(), reuses_before);
  ScratchArena::ClearThreadPool();
}

// ---- Finite-difference gradient checking ----------------------------------

// Builds a scalar loss from an input parameter through `network`, then
// verifies d loss / d input against central finite differences.
void CheckGradients(
    int rows, int cols,
    const std::function<VarId(Tape&, VarId)>& network,
    double tolerance = 2e-2, std::uint64_t seed = 99) {
  Rng rng(seed);
  Matrix value = RandomMatrix(rows, cols, rng, 0.7);
  Matrix grad(rows, cols);

  // Analytic gradients.
  {
    Tape tape;
    const VarId x = tape.Parameter(&value, &grad);
    const VarId loss = network(tape, x);
    tape.Backward(loss);
  }

  // Central differences on a sample of coordinates (all when small).
  const double h = 1e-3;
  for (std::size_t i = 0; i < value.data.size(); ++i) {
    const float saved = value.data[i];
    value.data[i] = saved + static_cast<float>(h);
    double up, down;
    {
      Tape tape;
      Matrix unused(rows, cols);
      const VarId x = tape.Parameter(&value, &unused);
      up = tape.value(network(tape, x)).at(0, 0);
    }
    value.data[i] = saved - static_cast<float>(h);
    {
      Tape tape;
      Matrix unused(rows, cols);
      const VarId x = tape.Parameter(&value, &unused);
      down = tape.value(network(tape, x)).at(0, 0);
    }
    value.data[i] = saved;
    const double numeric = (up - down) / (2.0 * h);
    const double analytic = grad.data[i];
    const double err = std::abs(numeric - analytic) /
                       std::max({std::abs(numeric), std::abs(analytic), 1.0});
    EXPECT_LT(err, tolerance)
        << "coordinate " << i << ": numeric=" << numeric
        << " analytic=" << analytic;
  }
}

// Reduces any matrix to a scalar via a fixed quadratic-ish readout so every
// element influences the loss.
VarId Readout(Tape& tape, VarId x) {
  const Matrix& v = tape.value(x);
  Matrix w(v.cols, 1);
  for (int j = 0; j < v.cols; ++j) {
    w.at(j, 0) = 0.3f + 0.05f * static_cast<float>(j % 7);
  }
  const VarId wv = tape.Constant(std::move(w));
  const VarId col = tape.MatMulOp(x, wv);      // [rows x 1]
  const VarId pooled = tape.MeanRowsOp(col);   // [1 x 1]
  return tape.SquaredErrorOp(pooled, 0.37);
}

TEST(TapeGradientTest, MatMul) {
  Rng rng(5);
  Matrix other = RandomMatrix(4, 6, rng);
  CheckGradients(3, 4, [&](Tape& tape, VarId x) {
    const VarId b = tape.Constant(other);
    return Readout(tape, tape.MatMulOp(x, b));
  });
}

TEST(TapeGradientTest, MatMulRightArgument) {
  Rng rng(6);
  Matrix other = RandomMatrix(5, 3, rng);
  CheckGradients(3, 4, [&](Tape& tape, VarId x) {
    const VarId a = tape.Constant(other);
    return Readout(tape, tape.MatMulOp(a, x));
  });
}

TEST(TapeGradientTest, AddAndBroadcast) {
  Rng rng(7);
  Matrix other = RandomMatrix(4, 5, rng);
  CheckGradients(4, 5, [&](Tape& tape, VarId x) {
    const VarId b = tape.Constant(other);
    return Readout(tape, tape.AddOp(x, b));
  });
  CheckGradients(1, 5, [&](Tape& tape, VarId x) {
    const VarId a = tape.Constant(other);
    return Readout(tape, tape.AddRowBroadcast(a, x));
  });
}

TEST(TapeGradientTest, Relu) {
  CheckGradients(4, 4, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.ReluOp(x));
  }, /*tolerance=*/5e-2);  // Kinks near zero are fine to miss slightly.
}

TEST(TapeGradientTest, Tanh) {
  CheckGradients(4, 4, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.TanhOp(x));
  });
}

TEST(TapeGradientTest, GatherRows) {
  // Out of order, with row 2 taken three times and row 1 never: the
  // backward pass must scatter-add every repeat and leave row 1 at zero.
  const std::vector<int> rows = {3, 2, 0, 2, 4, 2};
  CheckGradients(5, 3, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.GatherRowsOp(x, rows));
  });
  Tape tape;
  Rng rng(8);
  Matrix value = RandomMatrix(5, 3, rng);
  Matrix grad(5, 3);
  const VarId x = tape.Parameter(&value, &grad);
  const VarId out = tape.GatherRowsOp(x, rows);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(tape.value(out).at(i, j), value.at(rows[i], j));
    }
  }
  tape.Backward(Readout(tape, out));
  for (int j = 0; j < 3; ++j) EXPECT_EQ(grad.at(1, j), 0.0f);
}

TEST(TapeGradientTest, NeighborMean) {
  // A 4-node path graph: 0-1-2-3 (undirected neighbor lists).
  NeighborLists lists;
  lists.offsets = {0, 1, 3, 5, 6};
  lists.indices = {1, 0, 2, 1, 3, 2};
  lists.Finalize();
  CheckGradients(4, 3, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.NeighborMeanOp(x, &lists));
  });
}

TEST(TapeGradientTest, MeanRows) {
  CheckGradients(5, 3, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.MeanRowsOp(x));
  });
}

TEST(TapeGradientTest, L2NormalizeRows) {
  CheckGradients(4, 5, [&](Tape& tape, VarId x) {
    return Readout(tape, tape.L2NormalizeRowsOp(x));
  });
}

TEST(TapeGradientTest, PpoLoss) {
  const std::vector<int> actions = {0, 2, 1, 3};
  const std::vector<float> old_logp = {-1.2f, -0.9f, -1.6f, -1.1f};
  CheckGradients(4, 4, [&](Tape& tape, VarId x) {
    return tape.PpoLossOp(x, actions, /*advantage=*/0.8, old_logp,
                          /*clip_epsilon=*/0.2, /*entropy_coef=*/0.05);
  });
  // Negative advantage exercises the other clip branch.
  CheckGradients(4, 4, [&](Tape& tape, VarId x) {
    return tape.PpoLossOp(x, actions, /*advantage=*/-0.6, old_logp,
                          /*clip_epsilon=*/0.2, /*entropy_coef=*/0.05);
  }, 2e-2, /*seed=*/123);
}

TEST(TapeGradientTest, SquaredErrorAndAddScaled) {
  CheckGradients(1, 1, [&](Tape& tape, VarId x) {
    const VarId a = tape.SquaredErrorOp(x, 0.25);
    const VarId b = tape.SquaredErrorOp(x, -1.0);
    return tape.AddScaled(a, 0.7, b, 1.3);
  });
}

TEST(TapeTest, BackwardAccumulatesIntoSharedParameter) {
  Matrix value(2, 2);
  value.data = {1.0f, 2.0f, 3.0f, 4.0f};
  Matrix grad(2, 2);
  Tape tape;
  const VarId x = tape.Parameter(&value, &grad);
  // Use x twice: gradients must sum.
  const VarId sum = tape.AddOp(x, x);
  const VarId loss = Readout(tape, sum);
  tape.Backward(loss);
  Matrix grad_once(2, 2);
  {
    Tape tape2;
    const VarId x2 = tape2.Parameter(&value, &grad_once);
    Matrix identity(2, 2);
    identity.at(0, 0) = identity.at(1, 1) = 2.0f;  // 2*x via constant matmul
    const VarId two_x = tape2.MatMulOp(x2, tape2.Constant(identity));
    tape2.Backward(Readout(tape2, two_x));
  }
  for (std::size_t i = 0; i < grad.data.size(); ++i) {
    EXPECT_NEAR(grad.data[i], grad_once.data[i], 1e-4);
  }
}

TEST(TapeTest, RowSoftmaxSumsToOne) {
  Rng rng(11);
  const Matrix logits = RandomMatrix(6, 8, rng, 2.0);
  const Matrix probs = Tape::RowSoftmax(logits);
  for (int i = 0; i < probs.rows; ++i) {
    double sum = 0.0;
    for (int j = 0; j < probs.cols; ++j) {
      EXPECT_GT(probs.at(i, j), 0.0f);
      sum += probs.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(TapeTest, RowLogProbsMatchesSoftmax) {
  Rng rng(12);
  const Matrix logits = RandomMatrix(5, 7, rng, 1.5);
  const Matrix probs = Tape::RowSoftmax(logits);
  const std::vector<int> actions = {0, 3, 6, 2, 4};
  const std::vector<float> logp = Tape::RowLogProbs(logits, actions);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(std::exp(logp[static_cast<std::size_t>(i)]),
                probs.at(i, actions[static_cast<std::size_t>(i)]), 1e-4);
  }
}

// ---- Modules ---------------------------------------------------------------

TEST(ModulesTest, LinearShapesAndDeterminism) {
  Rng rng1(42), rng2(42);
  Linear l1("fc", 8, 5, rng1);
  Linear l2("fc", 8, 5, rng2);
  Rng data_rng(1);
  const Matrix x = RandomMatrix(3, 8, data_rng);
  Tape t1, t2;
  const auto& y1 = t1.value(l1.Forward(t1, t1.Constant(x)));
  const auto& y2 = t2.value(l2.Forward(t2, t2.Constant(x)));
  ASSERT_EQ(y1.rows, 3);
  ASSERT_EQ(y1.cols, 5);
  EXPECT_EQ(y1.data, y2.data);  // Same seed, same init, same output.
}

TEST(ModulesTest, GraphSageOutputsNormalizedRows) {
  Rng rng(7);
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  const NeighborLists lists = BuildNeighborLists(g);
  GraphSageNetwork net(5, 16, 2, rng);
  Rng data_rng(3);
  Matrix features = RandomMatrix(g.NumNodes(), 5, data_rng);
  Tape tape;
  const VarId out = net.Forward(tape, tape.Constant(features), &lists);
  const Matrix& h = tape.value(out);
  ASSERT_EQ(h.rows, g.NumNodes());
  ASSERT_EQ(h.cols, 16);
  for (int i = 0; i < h.rows; ++i) {
    double norm = 0.0;
    for (int j = 0; j < h.cols; ++j) {
      norm += static_cast<double>(h.at(i, j)) * h.at(i, j);
    }
    // Rows are L2-normalized (or all-zero if ReLU killed everything).
    EXPECT_TRUE(norm < 1.0 + 1e-3);
  }
}

TEST(ModulesTest, BuildNeighborListsIsUndirected) {
  Graph g("tiny");
  const int a = g.AddNode(OpType::kInput, "a", 0, 1);
  const int b = g.AddNode(OpType::kRelu, "b", 1, 1);
  const int c = g.AddNode(OpType::kOutput, "c", 0, 1);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  const NeighborLists lists = BuildNeighborLists(g);
  ASSERT_EQ(lists.num_rows(), 3);
  EXPECT_EQ(lists.offsets[1] - lists.offsets[0], 1);  // a: {b}
  EXPECT_EQ(lists.offsets[2] - lists.offsets[1], 2);  // b: {a, c}
  EXPECT_EQ(lists.offsets[3] - lists.offsets[2], 1);  // c: {b}
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize 0.5*(w . x - 3)^2 over w.
  Param w("w", 1, 4);
  Rng rng(5);
  for (float& v : w.value.data) v = static_cast<float>(rng.Normal());
  Adam adam({&w}, Adam::Options{.lr = 0.05});
  Matrix x(4, 1);
  x.data = {1.0f, -2.0f, 0.5f, 3.0f};
  double final_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    Tape tape;
    const VarId wv = tape.Parameter(&w.value, &w.grad);
    const VarId pred = tape.MatMulOp(wv, tape.Constant(x));
    const VarId loss = tape.SquaredErrorOp(pred, 3.0);
    final_loss = tape.value(loss).at(0, 0);
    tape.Backward(loss);
    adam.Step();
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(CheckpointTest, SaveLoadRoundtrip) {
  Rng rng(9);
  Mlp original("net", {4, 8, 3}, rng);
  Rng rng2(1234);
  Mlp other("net", {4, 8, 3}, rng2);

  std::stringstream buffer;
  SaveParams(original.Params(), buffer);
  LoadParams(other.Params(), buffer);

  Rng data_rng(2);
  const Matrix x = RandomMatrix(2, 4, data_rng);
  Tape t1, t2;
  const auto& y1 = t1.value(original.Forward(t1, t1.Constant(x)));
  const auto& y2 = t2.value(other.Forward(t2, t2.Constant(x)));
  EXPECT_EQ(y1.data, y2.data);
}

TEST(CheckpointTest, LoadRejectsMismatch) {
  Rng rng(10);
  Mlp a("a", {4, 3}, rng);
  Mlp b("b", {4, 3}, rng);
  std::stringstream buffer;
  SaveParams(a.Params(), buffer);
  EXPECT_THROW(LoadParams(b.Params(), buffer), std::runtime_error);
}

TEST(CheckpointTest, SnapshotRestoreRoundtrip) {
  Rng rng(11);
  Mlp net("net", {3, 5, 2}, rng);
  const std::vector<Matrix> snapshot = SnapshotParams(net.Params());
  // Perturb.
  for (Param* p : net.Params()) {
    for (float& v : p->value.data) v += 1.0f;
  }
  RestoreParams(net.Params(), snapshot);
  const std::vector<Matrix> after = SnapshotParams(net.Params());
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].data, after[i].data);
  }
}

}  // namespace
}  // namespace mcm
