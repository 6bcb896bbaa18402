// Microbenchmarks for the neural-network substrate: the GEMM kernels
// (blocked vs naive reference, serial vs threaded), NeighborMean,
// GraphSAGE forward, rollout sampling, and PPO updates at corpus and BERT
// scales.
//
// Besides the google-benchmark timings this binary measures one gate metric
// directly (a same-machine ratio, robust to runner speed) and records it
// under "gate/" in BENCH_micro_nn.json, where scripts/bench_compare.py
// --gate trips on regressions:
//
//   gate/nn_threaded_over_serial_ratio   BERT-scale GraphSAGE forward +
//                                        backward wall time at 8 threads
//                                        over the same work at 1 thread,
//                                        with bit-identical losses and
//                                        gradients MCM_CHECKed between the
//                                        two runs (< 1 on multi-core
//                                        machines; ~1 on a single core)
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "micro_common.h"

#include "common/logging.h"
#include "common/stats.h"
#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "nn/matrix.h"
#include "nn/modules.h"
#include "nn/tape.h"
#include "rl/env.h"
#include "rl/policy.h"
#include "rl/ppo.h"
#include "runtime/thread_pool.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

// ---- GEMM kernels -----------------------------------------------------------
//
// Shape 0 ("small") is a quick-config layer product; shape 1 ("large") is a
// BERT-scale embedding product, the case the blocked kernels and the
// parallel path are for.  The *Reference benches run the retained naive
// kernels on the same shapes, so a BENCH_micro_nn.json diff directly shows
// the kernel speedup.
struct GemmShape {
  int m, k, n;
};
GemmShape GemmCase(int selector) {
  return selector == 0 ? GemmShape{330, 48, 48} : GemmShape{2048, 128, 128};
}

Matrix RandomMatrix(int rows, int cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (float& x : m.data) {
    x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  return m;
}

template <void (*Kernel)(const Matrix&, const Matrix&, Matrix&, bool)>
void GemmBench(benchmark::State& state, int a_rows, int a_cols, int b_rows,
               int b_cols) {
  const Matrix a = RandomMatrix(a_rows, a_cols, 11);
  const Matrix b = RandomMatrix(b_rows, b_cols, 12);
  Matrix out;
  for (auto _ : state) {
    Kernel(a, b, out, /*accumulate=*/false);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.counters["flops"] = 2.0 * a_rows * a_cols * b_cols;
}

void BM_MatMul(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMul>(state, s.m, s.k, s.k, s.n);
}
BENCHMARK(BM_MatMul)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

void BM_MatMulReference(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMulReference>(state, s.m, s.k, s.k, s.n);
}
BENCHMARK(BM_MatMulReference)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

void BM_MatMulTransA(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMulTransA>(state, s.m, s.k, s.m, s.n);
}
BENCHMARK(BM_MatMulTransA)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

void BM_MatMulTransAReference(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMulTransAReference>(state, s.m, s.k, s.m, s.n);
}
BENCHMARK(BM_MatMulTransAReference)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulTransB(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMulTransB>(state, s.m, s.k, s.n, s.k);
}
BENCHMARK(BM_MatMulTransB)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

void BM_MatMulTransBReference(benchmark::State& state) {
  const GemmShape s = GemmCase(static_cast<int>(state.range(0)));
  GemmBench<MatMulTransBReference>(state, s.m, s.k, s.n, s.k);
}
BENCHMARK(BM_MatMulTransBReference)
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMicrosecond);

// The blocked GEMMs at an explicit thread count, on the BERT-scale shape
// (the small shape never leaves the serial path).  Against BM_MatMul* (which
// run at the inherited default) this shows the intra-op scaling curve.
template <void (*Kernel)(const Matrix&, const Matrix&, Matrix&, bool)>
void ThreadedGemmBench(benchmark::State& state, int a_rows, int a_cols,
                       int b_rows, int b_cols) {
  const int previous_threads = DefaultThreadCount();
  SetDefaultThreadCount(static_cast<int>(state.range(0)));
  const Matrix a = RandomMatrix(a_rows, a_cols, 11);
  const Matrix b = RandomMatrix(b_rows, b_cols, 12);
  Matrix out;
  for (auto _ : state) {
    Kernel(a, b, out, /*accumulate=*/false);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.counters["flops"] = 2.0 * a_rows * a_cols * b_cols;
  SetDefaultThreadCount(previous_threads);
}

void BM_MatMulThreaded(benchmark::State& state) {
  const GemmShape s = GemmCase(1);
  ThreadedGemmBench<MatMul>(state, s.m, s.k, s.k, s.n);
}
BENCHMARK(BM_MatMulThreaded)->Arg(1)->Arg(2)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_MatMulTransAThreaded(benchmark::State& state) {
  const GemmShape s = GemmCase(1);
  ThreadedGemmBench<MatMulTransA>(state, s.m, s.k, s.m, s.n);
}
BENCHMARK(BM_MatMulTransAThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

const Graph& GraphForCase(int selector) {
  static const Graph medium = MakeResNet("resnet", ResNetConfig{});
  static const Graph bert = MakeBert();
  return selector == 0 ? medium : bert;
}

RlConfig BenchRlConfig() {
  RlConfig config = RlConfig::Quick();
  config.seed = 77;
  return config;
}

void BM_GraphSageForward(benchmark::State& state) {
  const Graph& graph = GraphForCase(static_cast<int>(state.range(0)));
  GraphContext context(graph, 36);
  PolicyNetwork policy(BenchRlConfig());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Embed(context).data.data());
  }
  state.counters["nodes"] = graph.NumNodes();
}
BENCHMARK(BM_GraphSageForward)->DenseRange(0, 1)->Unit(benchmark::kMillisecond)->Iterations(10);

void BM_SampleRollout(benchmark::State& state) {
  const Graph& graph = GraphForCase(static_cast<int>(state.range(0)));
  GraphContext context(graph, 36);
  PolicyNetwork policy(BenchRlConfig());
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.SampleRollout(context, rng).value_pred);
  }
  state.counters["nodes"] = graph.NumNodes();
}
BENCHMARK(BM_SampleRollout)->DenseRange(0, 1)->Unit(benchmark::kMillisecond)->Iterations(5);

void BM_PpoIteration(benchmark::State& state) {
  const Graph& graph = GraphForCase(static_cast<int>(state.range(0)));
  GraphContext context(graph, 36);
  AnalyticalCostModel model{McmConfig{}};
  Rng rng(4);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(graph, model, context.solver(), rng);
  PartitionEnv env(graph, model, baseline.eval.runtime_s);
  RlConfig config = BenchRlConfig();
  config.rollouts_per_update = 8;
  config.epochs = 2;
  PolicyNetwork policy(config);
  PpoTrainer trainer(policy, Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.Iterate(context, env).mean_reward);
  }
  state.counters["nodes"] = graph.NumNodes();
  state.counters["samples/iter"] = config.rollouts_per_update;
}
BENCHMARK(BM_PpoIteration)->DenseRange(0, 1)->Unit(benchmark::kMillisecond)->Iterations(2);

// ---- NeighborMean ------------------------------------------------------------

constexpr int kSageHiddenDim = 128;  // BERT-scale embedding width.

const NeighborLists& ListsForCase(int selector) {
  static const NeighborLists medium = BuildNeighborLists(GraphForCase(0));
  static const NeighborLists bert = BuildNeighborLists(GraphForCase(1));
  return selector == 0 ? medium : bert;
}

void BM_NeighborMeanForward(benchmark::State& state) {
  const NeighborLists& lists = ListsForCase(static_cast<int>(state.range(0)));
  const Matrix x =
      RandomMatrix(lists.num_rows(), kSageHiddenDim, 13);
  for (auto _ : state) {
    Tape tape;
    benchmark::DoNotOptimize(
        tape.value(tape.NeighborMeanOp(tape.Constant(x), &lists)).data.data());
  }
  state.counters["nodes"] = lists.num_rows();
}
BENCHMARK(BM_NeighborMeanForward)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

void BM_NeighborMeanFwdBwd(benchmark::State& state) {
  const NeighborLists& lists = ListsForCase(static_cast<int>(state.range(0)));
  Matrix value = RandomMatrix(lists.num_rows(), kSageHiddenDim, 14);
  Matrix grad(lists.num_rows(), kSageHiddenDim);
  Matrix ones(kSageHiddenDim, 1);
  std::fill(ones.data.begin(), ones.data.end(), 1.0f);
  for (auto _ : state) {
    Tape tape;
    const VarId x = tape.Parameter(&value, &grad);
    const VarId y = tape.NeighborMeanOp(x, &lists);
    tape.Backward(tape.MatMulOp(tape.MeanRowsOp(y), tape.Constant(ones)));
    benchmark::DoNotOptimize(grad.data.data());
    grad.Zero();
  }
  state.counters["nodes"] = lists.num_rows();
}
BENCHMARK(BM_NeighborMeanFwdBwd)->DenseRange(0, 1)->Unit(benchmark::kMicrosecond);

// ---- Gate measurement --------------------------------------------------------

// One BERT-scale GraphSAGE forward + backward to a scalar readout.  Returns
// the loss; parameter gradients accumulate into the network's grad matrices.
float SageFwdBwd(GraphSageNetwork& net, const Matrix& features,
                 const NeighborLists& lists, const Matrix& ones) {
  Tape tape;
  const VarId h = net.Forward(tape, tape.Constant(features), &lists);
  const VarId loss = tape.MatMulOp(tape.MeanRowsOp(h), tape.Constant(ones));
  tape.Backward(loss);
  return tape.value(loss).at(0, 0);
}

// Times the fwd+bwd pass at 1 vs 8 threads, MCM_CHECKing bit-identical
// losses and parameter gradients between the runs, and records the ratio of
// the median passes as gate/nn_threaded_over_serial_ratio.  The ratio is a same-machine
// comparison: < 1 whenever cores are available, ~1 on a single core; a
// regression (threading overhead without payoff, or a broken parallel path)
// pushes it well above 1.
void MeasureNnParallelGate(telemetry::RunReport& report) {
  const Graph& graph = GraphForCase(1);
  const NeighborLists& lists = ListsForCase(1);
  Rng rng(15);
  GraphSageNetwork net(kSageHiddenDim, kSageHiddenDim, /*num_layers=*/2, rng);
  const Matrix features = RandomMatrix(graph.NumNodes(), kSageHiddenDim, 16);
  Matrix ones(kSageHiddenDim, 1);
  std::fill(ones.data.begin(), ones.data.end(), 1.0f);
  const int reps = 9;

  // Identity check first: same loss, same gradient bits at both counts.
  const int previous_threads = DefaultThreadCount();
  SetDefaultThreadCount(1);
  const float serial_loss = SageFwdBwd(net, features, lists, ones);
  std::vector<Matrix> serial_grads;
  for (Param* p : net.Params()) {
    serial_grads.push_back(p->grad);
    p->grad.Zero();
  }
  SetDefaultThreadCount(8);
  const float threaded_loss = SageFwdBwd(net, features, lists, ones);
  MCM_CHECK(serial_loss == threaded_loss);
  {
    std::size_t k = 0;
    for (Param* p : net.Params()) {
      MCM_CHECK(p->grad.data == serial_grads[k].data)
          << "gradient mismatch for " << p->name;
      p->grad.Zero();
      ++k;
    }
  }

  // Interleave the two counts, one pass each per repetition, so host drift
  // over the measurement hits both alike; the medians drop outlier passes.
  const int counts[2] = {1, 8};
  std::vector<double> elapsed_runs[2];
  float sinks[2] = {0.0f, 0.0f};
  for (int r = 0; r < reps; ++r) {
    for (int run = 0; run < 2; ++run) {
      SetDefaultThreadCount(counts[run]);
      const double start = telemetry::MonotonicSeconds();
      sinks[run] += SageFwdBwd(net, features, lists, ones);
      elapsed_runs[run].push_back(telemetry::MonotonicSeconds() - start);
      for (Param* p : net.Params()) p->grad.Zero();
    }
  }
  SetDefaultThreadCount(previous_threads);
  MCM_CHECK(sinks[0] == sinks[1]);
  const double elapsed[2] = {Percentile(elapsed_runs[0], 0.5),
                             Percentile(elapsed_runs[1], 0.5)};

  // Clamp the denominator so a freakishly fast serial run cannot turn the
  // gate metric into inf/NaN.
  const double ratio = elapsed[1] / std::max(elapsed[0], 1e-6);
  report.AddPhaseSeconds("gate_nn_fwdbwd_serial", elapsed[0]);
  report.AddPhaseSeconds("gate_nn_fwdbwd_threaded", elapsed[1]);
  report.SetValue("gate/nn_threaded_over_serial_ratio", ratio);
  std::printf("# gate: GraphSAGE fwd+bwd on %s (%d nodes, hidden %d), "
              "median of %d interleaved passes: 1 thread %.4f s, "
              "8 threads %.4f s -> %.2fx speedup "
              "(bit-identical losses and gradients)\n",
              graph.name().c_str(), graph.NumNodes(), kSageHiddenDim, reps,
              elapsed[0], elapsed[1], 1.0 / std::max(ratio, 1e-9));
}

int RunMicroNn(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  bench::InitBenchRuntime(argc, argv);
  telemetry::RunReport report = bench::MakeBenchReport("micro_nn");
  bench::ReportingReporter reporter(report);
  {
    telemetry::PhaseTimer timer(report, "benchmarks");
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  MeasureNnParallelGate(report);
  bench::WriteBenchReport(report);
  return 0;
}

}  // namespace
}  // namespace mcm

int main(int argc, char** argv) { return mcm::RunMicroNn(argc, argv); }
