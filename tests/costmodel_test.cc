// Tests for the analytical cost model and the hardware simulator, including
// the dynamic (memory) constraint, the performance nonlinearities, and the
// analytical-vs-simulated correlation the calibration study relies on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "partition/heuristics.h"
#include "solver/modes.h"

namespace mcm {
namespace {

Partition Assign(std::vector<int> chips, int num_chips) {
  Partition p;
  p.assignment = std::move(chips);
  p.num_chips = num_chips;
  return p;
}

McmConfig SmallMcm() {
  McmConfig mcm;
  mcm.num_chips = 4;
  mcm.chip_flops_per_s = 1e9;
  mcm.effective_utilization = 1.0;
  mcm.link_bandwidth_bytes_per_s = 1e9;
  mcm.link_latency_s = 0.0;
  mcm.sram_bytes_per_chip = 1e9;
  return mcm;
}

TEST(AnalyticalTest, SingleChipRuntimeIsComputeOnly) {
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 5e8, 100.0);
  g.AddNode(OpType::kMatMul, "b", 5e8, 100.0);
  g.AddEdge(0, 1);
  AnalyticalCostModel model(SmallMcm());
  const EvalResult r = model.Evaluate(g, Assign({0, 0}, 4));
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.runtime_s, 1.0, 1e-9);  // 1 GFLOP at 1 GFLOP/s.
  EXPECT_NEAR(r.throughput, 1.0, 1e-9);
}

TEST(AnalyticalTest, PipelineBottleneckIsMaxChip) {
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 8e8, 0.0);
  g.AddNode(OpType::kMatMul, "b", 2e8, 0.0);
  g.AddEdge(0, 1);
  AnalyticalCostModel model(SmallMcm());
  const EvalResult r = model.Evaluate(g, Assign({0, 1}, 4));
  ASSERT_TRUE(r.valid);
  EXPECT_NEAR(r.runtime_s, 0.8, 1e-9);  // Bottleneck chip 0.
}

TEST(AnalyticalTest, CommunicationChargesBothEndpoints) {
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 0.0, 5e8);  // 0.5 GB output.
  g.AddNode(OpType::kMatMul, "b", 0.0, 0.0);
  g.AddEdge(0, 1);
  AnalyticalCostModel model(SmallMcm());
  const EvalResult r = model.Evaluate(g, Assign({0, 1}, 4));
  ASSERT_TRUE(r.valid);
  // Each endpoint pays 0.5 s of transfer at 1 GB/s.
  EXPECT_NEAR(r.runtime_s, 0.5, 1e-9);
}

TEST(AnalyticalTest, RejectsStaticallyInvalidPartitions) {
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 1.0, 1.0);
  g.AddNode(OpType::kMatMul, "b", 1.0, 1.0);
  g.AddEdge(0, 1);
  AnalyticalCostModel model(SmallMcm());
  const EvalResult r = model.Evaluate(g, Assign({1, 0}, 4));
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.failure, EvalFailure::kStaticConstraint);
}

TEST(AnalyticalTest, BalancedBeatsImbalanced) {
  // Four equal nodes on a chain: 2+2 split beats 3+1.
  Graph g("g");
  for (int i = 0; i < 4; ++i) {
    g.AddNode(OpType::kMatMul, "n", 1e8, 0.0);
    if (i > 0) g.AddEdge(i - 1, i);
  }
  AnalyticalCostModel model(SmallMcm());
  const double balanced =
      model.Evaluate(g, Assign({0, 0, 1, 1}, 4)).runtime_s;
  const double skewed = model.Evaluate(g, Assign({0, 0, 0, 1}, 4)).runtime_s;
  EXPECT_LT(balanced, skewed);
}

// ---- Hardware simulator ------------------------------------------------------

TEST(HwSimTest, AgreesWithAnalyticalOnComputeShape) {
  // With generous memory and no noise, the simulator's runtime ordering
  // matches the analytical model on compute-dominated partitions.
  Graph g("g");
  for (int i = 0; i < 4; ++i) {
    g.AddNode(OpType::kMatMul, "n", 1e9, 1e3, 1e6);
    if (i > 0) g.AddEdge(i - 1, i);
  }
  HardwareSim::Options opt;
  opt.noise_stddev = 0.0;
  HardwareSim sim(opt);
  const double balanced = sim.Evaluate(g, Assign({0, 0, 1, 1}, 4)).runtime_s;
  const double skewed = sim.Evaluate(g, Assign({0, 0, 0, 1}, 4)).runtime_s;
  EXPECT_LT(balanced, skewed);
}

TEST(HwSimTest, DynamicConstraintRejectsOversizedChip) {
  Graph g("g");
  // A node whose weights alone exceed chip SRAM.
  g.AddNode(OpType::kMatMul, "big", 1.0, 1.0, 100e6);
  g.AddNode(OpType::kMatMul, "ok", 1.0, 1.0, 1.0);
  g.AddEdge(0, 1);
  HardwareSim::Options opt;
  opt.mcm.sram_bytes_per_chip = 64e6;
  HardwareSim sim(opt);
  const EvalResult r = sim.Evaluate(g, Assign({0, 0}, 4));
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.failure, EvalFailure::kOutOfMemory);
  const auto report = sim.Simulate(g, Assign({0, 0}, 4));
  EXPECT_TRUE(report.oom);
  EXPECT_EQ(report.first_oom_chip, 0);
}

TEST(HwSimTest, PeakMemoryTracksLiveness) {
  // Chain a -> b -> c on one chip: a's buffer dies after b runs, so the
  // peak is params + two live buffers, not three.
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 1.0, 10e6);
  g.AddNode(OpType::kMatMul, "b", 1.0, 10e6);
  g.AddNode(OpType::kMatMul, "c", 1.0, 10e6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  HardwareSim sim;
  const auto report = sim.Simulate(g, Assign({0, 0, 0}, 4));
  EXPECT_LE(report.chips[0].peak_memory_bytes, 20e6 + 1);
  EXPECT_GE(report.chips[0].peak_memory_bytes, 20e6 - 1);
}

TEST(HwSimTest, FanOutKeepsProducerBufferLive) {
  // a feeds b and c, b feeds c: at c's slot all three buffers are live.
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 1.0, 10e6);
  g.AddNode(OpType::kMatMul, "b", 1.0, 10e6);
  g.AddNode(OpType::kMatMul, "c", 1.0, 10e6);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  HardwareSim sim;
  const auto report = sim.Simulate(g, Assign({0, 0, 0}, 4));
  EXPECT_GE(report.chips[0].peak_memory_bytes, 30e6 - 1);
}

TEST(HwSimTest, MultiHopTransfersOccupyIntermediateLinks) {
  // A transfer from chip 0 to chip 2 loads links 0->1 and 1->2.  Build a
  // pattern where the direct edge is legal: the middle chip holds only an
  // unconnected constant.
  Graph g("g");
  g.AddNode(OpType::kMatMul, "src", 1.0, 8e6);       // node 0 chip 0
  g.AddNode(OpType::kConstant, "mid", 0.0, 1.0);     // node 1 chip 1
  g.AddNode(OpType::kMatMul, "dst", 1.0, 1.0);       // node 2 chip 2
  g.AddNode(OpType::kMatMul, "mid_user", 1.0, 1.0);  // node 3 chip 2
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  HardwareSim::Options opt;
  opt.noise_stddev = 0.0;
  HardwareSim sim(opt);
  const Partition p = Assign({0, 1, 2, 2}, 3);
  ASSERT_EQ(ValidateStatic(g, p), Violation::kNone);
  const auto report = sim.Simulate(g, p);
  ASSERT_EQ(report.link_bytes.size(), 2u);
  EXPECT_GE(report.link_bytes[0], 8e6);
  EXPECT_GE(report.link_bytes[1], 8e6);
}

TEST(HwSimTest, NoiseIsDeterministicPerPartition) {
  const Graph g = MakeMlp("m", 64, {128, 128}, 10);
  HardwareSim sim;
  const Partition p = GreedyContiguousByCount(g, 4);
  const EvalResult r1 = sim.Evaluate(g, p);
  const EvalResult r2 = sim.Evaluate(g, p);
  ASSERT_TRUE(r1.valid);
  EXPECT_DOUBLE_EQ(r1.runtime_s, r2.runtime_s);
}

TEST(HwSimTest, NoiseDiffersAcrossPartitions) {
  Graph g("g");
  for (int i = 0; i < 6; ++i) {
    g.AddNode(OpType::kMatMul, "n", 1e9, 1e3);
    if (i > 0) g.AddEdge(i - 1, i);
  }
  HardwareSim sim;
  const double r1 = sim.Evaluate(g, Assign({0, 0, 0, 1, 1, 1}, 2)).runtime_s;
  const double r2 = sim.Evaluate(g, Assign({0, 0, 1, 1, 1, 1}, 2)).runtime_s;
  // Different partitions with different bottlenecks; also different noise.
  EXPECT_NE(r1, r2);
}

TEST(HwSimTest, LowIntensityOpsRunAtLowerUtilization) {
  // Same FLOPs, one op moves far more bytes: it must take longer.
  Graph dense("dense");
  dense.AddNode(OpType::kMatMul, "mm", 1e9, 1e3, 0.0);
  Graph sparse("sparse");
  sparse.AddNode(OpType::kAdd, "add", 1e9, 1e9, 0.0);
  HardwareSim::Options opt;
  opt.noise_stddev = 0.0;
  opt.mcm.sram_bytes_per_chip = 8e9;
  HardwareSim sim(opt);
  const double t_dense = sim.Evaluate(dense, Assign({0}, 2)).runtime_s;
  const double t_sparse = sim.Evaluate(sparse, Assign({0}, 2)).runtime_s;
  EXPECT_GT(t_sparse, 2.0 * t_dense);
}

TEST(HwSimTest, MemoryPressureSlowsTheChip) {
  HardwareSim::Options opt;
  opt.noise_stddev = 0.0;
  opt.mcm.sram_bytes_per_chip = 100e6;
  HardwareSim sim(opt);
  Graph light("light");
  light.AddNode(OpType::kMatMul, "mm", 1e9, 1e3, 10e6);
  Graph heavy("heavy");
  heavy.AddNode(OpType::kMatMul, "mm", 1e9, 1e3, 95e6);
  const double t_light = sim.Evaluate(light, Assign({0}, 2)).runtime_s;
  const double t_heavy = sim.Evaluate(heavy, Assign({0}, 2)).runtime_s;
  EXPECT_GT(t_heavy, t_light);
}

// ---- Calibration-style property (mini Figure 7) -----------------------------

TEST(CalibrationTest, AnalyticalPredictsHardwareOrdering) {
  // On random valid BERT partitions the two models correlate strongly but
  // imperfectly, and a nontrivial fraction fails only on hardware --
  // exactly the paper's Section 5.4 structure.
  const Graph bert = MakeBert();
  CpSolver solver(bert, 36);
  const ProbMatrix probs = ProbMatrix::Uniform(bert.NumNodes(), 36);
  AnalyticalCostModel analytical{McmConfig{}};
  HardwareSim hw;
  Rng rng(31);
  std::vector<double> predicted, measured;
  int invalid = 0, total = 0;
  for (int k = 0; k < 40; ++k) {
    const auto order = AlapRandomTopologicalOrder(bert, rng);
    const SolveResult r = SolveSample(solver, order, probs, rng);
    if (!r.success) continue;
    ++total;
    const EvalResult h = hw.Evaluate(bert, r.partition);
    if (!h.valid) {
      ++invalid;
      continue;
    }
    predicted.push_back(analytical.Evaluate(bert, r.partition).runtime_s);
    measured.push_back(h.runtime_s);
  }
  ASSERT_GE(total, 38);
  const double correlation = PearsonCorrelation(predicted, measured);
  EXPECT_GT(correlation, 0.6);
  EXPECT_LT(correlation, 0.999);  // Imperfect: the models must differ.
  EXPECT_GT(invalid, 0);          // Some samples fail only on hardware.
  EXPECT_LT(invalid, total / 2);
}

}  // namespace
}  // namespace mcm
