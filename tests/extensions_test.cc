// Tests for the extension surface: the latency objective, checkpoint file
// persistence, and broader property sweeps across the corpus.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "partition/heuristics.h"
#include "pipeline/pretrain.h"
#include "rl/env.h"
#include "solver/modes.h"

namespace mcm {
namespace {

Partition Assign(std::vector<int> chips, int num_chips) {
  Partition p;
  p.assignment = std::move(chips);
  p.num_chips = num_chips;
  return p;
}

// ---- Latency objective -------------------------------------------------------

TEST(LatencyTest, LatencyIsSumAndRuntimeIsMaxOfStageTimes) {
  Graph g("g");
  g.AddNode(OpType::kMatMul, "a", 6e8, 0.0);
  g.AddNode(OpType::kMatMul, "b", 4e8, 0.0);
  g.AddEdge(0, 1);
  McmConfig mcm;
  mcm.chip_flops_per_s = 1e9;
  mcm.effective_utilization = 1.0;
  mcm.link_bandwidth_bytes_per_s = 1e12;
  AnalyticalCostModel model(mcm);
  const EvalResult split = model.Evaluate(g, Assign({0, 1}, 4));
  ASSERT_TRUE(split.valid);
  EXPECT_NEAR(split.runtime_s, 0.6, 1e-9);
  EXPECT_NEAR(split.latency_s, 1.0, 1e-9);
  // On a single chip, latency equals runtime.
  const EvalResult fused = model.Evaluate(g, Assign({0, 0}, 4));
  EXPECT_NEAR(fused.latency_s, fused.runtime_s, 1e-12);
}

TEST(LatencyTest, LatencyAtLeastRuntimeEverywhere) {
  const std::vector<Graph> corpus = MakeCorpus();
  AnalyticalCostModel analytical{McmConfig{}};
  HardwareSim hw;
  Rng rng(77);
  for (int idx : {3, 21, 39, 57, 75}) {
    const Graph& g = corpus[static_cast<std::size_t>(idx)];
    CpSolver solver(g, 36);
    const ProbMatrix uniform = ProbMatrix::Uniform(g.NumNodes(), 36);
    const SolveResult r = SolveSampleWithRestarts(solver, g, uniform, rng);
    ASSERT_TRUE(r.success) << g.name();
    for (CostModel* model : {static_cast<CostModel*>(&analytical),
                             static_cast<CostModel*>(&hw)}) {
      const EvalResult eval = model->Evaluate(g, r.partition);
      if (!eval.valid) continue;
      EXPECT_GE(eval.latency_s, eval.runtime_s - 1e-12)
          << g.name() << " under " << model->name();
    }
  }
}

TEST(LatencyTest, EnvObjectiveSwitchesMetric) {
  const Graph g = MakeMlp("m", 128, {256, 256}, 10);
  AnalyticalCostModel model{McmConfig{}};
  Partition p = Partition::Empty(g.NumNodes(), 36);
  for (int u = 0; u < g.NumNodes(); ++u) {
    p.assignment[static_cast<std::size_t>(u)] = u < g.NumNodes() / 2 ? 0 : 1;
  }
  ASSERT_EQ(ValidateStatic(g, p), Violation::kNone);
  const EvalResult eval = model.Evaluate(g, p);
  PartitionEnv throughput_env(g, model, 1.0,
                              PartitionEnv::Objective::kThroughput);
  PartitionEnv latency_env(g, model, 1.0, PartitionEnv::Objective::kLatency);
  EXPECT_NEAR(throughput_env.Reward(p), 1.0 / eval.runtime_s, 1e-9);
  EXPECT_NEAR(latency_env.Reward(p), 1.0 / eval.latency_s, 1e-9);
  // The latency objective penalizes splitting more, so its reward is lower.
  EXPECT_LT(latency_env.Reward(p), throughput_env.Reward(p));
}

TEST(LatencyTest, SingleChipMaximizesLatencyObjective) {
  // Under the latency objective with negligible communication, fewer chips
  // is better (no pipeline benefit for one sample): all-on-one-chip must
  // score at least as well as any split.
  Graph g("chain");
  for (int i = 0; i < 8; ++i) {
    g.AddNode(OpType::kMatMul, "n", 1e8, 1e3);
    if (i > 0) g.AddEdge(i - 1, i);
  }
  AnalyticalCostModel model{McmConfig{}};
  PartitionEnv env(g, model, 1.0, PartitionEnv::Objective::kLatency);
  Partition fused = Partition::Empty(8, 4);
  std::fill(fused.assignment.begin(), fused.assignment.end(), 0);
  Partition split = Partition::Empty(8, 4);
  for (int u = 0; u < 8; ++u) split.assignment[static_cast<std::size_t>(u)] = u / 2;
  EXPECT_GE(env.Reward(fused), env.Reward(split));
}

// ---- Checkpoint files --------------------------------------------------------

TEST(CheckpointFileTest, SaveLoadRoundtrip) {
  RlConfig config = RlConfig::Quick();
  config.gnn_layers = 2;
  config.hidden_dim = 16;
  config.seed = 9;
  PolicyNetwork original(config);
  Checkpoint checkpoint;
  checkpoint.id = 7;
  checkpoint.samples_seen = 123;
  checkpoint.params = SnapshotParams(original.Params());

  const std::string path =
      (std::filesystem::temp_directory_path() / "mcm_ckpt_test.txt").string();
  PretrainPipeline::SaveCheckpointFile(checkpoint, config, path);
  const Checkpoint loaded =
      PretrainPipeline::LoadCheckpointFile(config, path);
  EXPECT_EQ(loaded.id, 7);
  EXPECT_EQ(loaded.samples_seen, 123);
  ASSERT_EQ(loaded.params.size(), checkpoint.params.size());
  for (std::size_t i = 0; i < loaded.params.size(); ++i) {
    EXPECT_EQ(loaded.params[i].data, checkpoint.params[i].data);
  }
  std::filesystem::remove(path);
}

TEST(CheckpointFileTest, LoadRejectsMissingAndGarbage) {
  RlConfig config = RlConfig::Quick();
  config.gnn_layers = 2;
  config.hidden_dim = 16;
  EXPECT_THROW(
      PretrainPipeline::LoadCheckpointFile(config, "/nonexistent/ckpt"),
      std::runtime_error);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mcm_ckpt_garbage.txt")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a checkpoint\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(PretrainPipeline::LoadCheckpointFile(config, path),
               std::runtime_error);
  std::filesystem::remove(path);
}

// ---- Broader property sweeps --------------------------------------------------

// Serialization round-trips every corpus family.
class SerializationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationSweepTest, RoundtripsCorpusGraph) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[static_cast<std::size_t>(GetParam())];
  std::stringstream buffer;
  g.Serialize(buffer);
  const Graph loaded = Graph::Deserialize(buffer);
  EXPECT_EQ(loaded.NumNodes(), g.NumNodes());
  EXPECT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_DOUBLE_EQ(loaded.TotalFlops(), g.TotalFlops());
  EXPECT_DOUBLE_EQ(loaded.TotalParamBytes(), g.TotalParamBytes());
}

INSTANTIATE_TEST_SUITE_P(Corpus, SerializationSweepTest,
                         ::testing::Values(0, 10, 20, 30, 40, 50, 60, 70, 80));

// The greedy-repair baseline is valid and better than a single chip for
// sufficiently large graphs, under both cost models.
class BaselineSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineSweepTest, BaselineValidAndMultiChip) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[static_cast<std::size_t>(GetParam())];
  AnalyticalCostModel model{McmConfig{}};
  CpSolver solver(g, 36);
  Rng rng(101);
  const BaselineResult baseline =
      ComputeHeuristicBaseline(g, model, solver, rng);
  ASSERT_TRUE(baseline.eval.valid) << g.name();
  // Compare with all-on-one-chip.
  Partition fused = Partition::Empty(g.NumNodes(), 36);
  std::fill(fused.assignment.begin(), fused.assignment.end(), 0);
  const EvalResult fused_eval = model.Evaluate(g, fused);
  EXPECT_LE(baseline.eval.runtime_s, fused_eval.runtime_s * 1.001)
      << g.name();
}

INSTANTIATE_TEST_SUITE_P(Corpus, BaselineSweepTest,
                         ::testing::Values(4, 24, 44, 64, 84));

// Hardware-simulator reports are internally consistent across the corpus.
class HwSimSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(HwSimSweepTest, ReportInternallyConsistent) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[static_cast<std::size_t>(GetParam())];
  CpSolver solver(g, 36);
  const ProbMatrix uniform = ProbMatrix::Uniform(g.NumNodes(), 36);
  Rng rng(55 + GetParam());
  const SolveResult r = SolveSampleWithRestarts(solver, g, uniform, rng);
  ASSERT_TRUE(r.success) << g.name();
  HardwareSim sim;
  const HardwareSim::Report report = sim.Simulate(g, r.partition);
  ASSERT_TRUE(report.statically_valid);
  int total_nodes = 0;
  for (const auto& chip : report.chips) {
    total_nodes += chip.num_nodes;
    EXPECT_GE(chip.peak_memory_bytes, chip.param_bytes - 1.0);
    EXPECT_GE(chip.compute_s, 0.0);
    EXPECT_GE(chip.transfer_s, 0.0);
  }
  EXPECT_EQ(total_nodes, g.NumNodes());
  if (!report.oom) {
    double max_stage = 0.0;
    for (const auto& chip : report.chips) {
      max_stage = std::max(max_stage, chip.compute_s + chip.transfer_s);
    }
    // Runtime is the noisy bottleneck: within noise bounds of max stage.
    EXPECT_GE(report.runtime_s, 0.8 * max_stage);
    EXPECT_GE(report.latency_s, report.runtime_s - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, HwSimSweepTest,
                         ::testing::Values(6, 26, 46, 66, 86));

// Chip-load accounting conserves totals under any valid partition.
class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, LoadsSumToGraphTotals) {
  const std::vector<Graph> corpus = MakeCorpus();
  const Graph& g = corpus[static_cast<std::size_t>(GetParam())];
  CpSolver solver(g, 36);
  const ProbMatrix uniform = ProbMatrix::Uniform(g.NumNodes(), 36);
  Rng rng(91 + GetParam());
  const SolveResult r = SolveSampleWithRestarts(solver, g, uniform, rng);
  ASSERT_TRUE(r.success) << g.name();
  const auto loads = ComputeChipLoads(g, r.partition);
  double flops = 0.0, params = 0.0, in_bytes = 0.0, out_bytes = 0.0;
  for (const ChipLoad& load : loads) {
    flops += load.compute_flops;
    params += load.param_bytes;
    in_bytes += load.bytes_in;
    out_bytes += load.bytes_out;
  }
  EXPECT_NEAR(flops, g.TotalFlops(), 1e-6 * g.TotalFlops() + 1e-9);
  EXPECT_NEAR(params, g.TotalParamBytes(),
              1e-6 * g.TotalParamBytes() + 1e-9);
  EXPECT_NEAR(in_bytes, out_bytes, 1e-6 * out_bytes + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Corpus, ConservationTest,
                         ::testing::Values(8, 28, 48, 68));

// ---- Partition reporting & persistence ----------------------------------------

TEST(PartitionIoTest, DescribeMentionsValidityAndChips) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  Partition p = Partition::Empty(g.NumNodes(), 4);
  for (int u = 0; u < g.NumNodes(); ++u) {
    p.assignment[static_cast<std::size_t>(u)] = u * 4 / g.NumNodes();
  }
  const std::string text = DescribePartition(g, p);
  EXPECT_NE(text.find("static validity: none"), std::string::npos);
  EXPECT_NE(text.find("chips used: 4"), std::string::npos);
}

TEST(PartitionIoTest, SaveLoadRoundtrip) {
  const Graph g = MakeMlp("m", 64, {64}, 10);
  Partition p = Partition::Empty(g.NumNodes(), 8);
  Rng rng(5);
  for (int& chip : p.assignment) chip = static_cast<int>(rng.UniformInt(8));
  std::stringstream buffer;
  SavePartition(p, buffer);
  const Partition loaded = LoadPartition(g.NumNodes(), 8, buffer);
  EXPECT_EQ(loaded, p);
}

TEST(PartitionIoTest, LoadRejectsBadInput) {
  std::stringstream wrong_header("bogus 3 2\n0 0\n1 1\n2 0\n");
  EXPECT_THROW(LoadPartition(3, 2, wrong_header), std::runtime_error);
  std::stringstream out_of_range("mcm-partition-v1 2 2\n0 0\n1 9\n");
  EXPECT_THROW(LoadPartition(2, 2, out_of_range), std::runtime_error);
  std::stringstream truncated("mcm-partition-v1 2 2\n0 0\n");
  EXPECT_THROW(LoadPartition(2, 2, truncated), std::runtime_error);
}

TEST(BestPartitionTest, EnvTracksIncumbent) {
  const Graph g = MakeMlp("m", 64, {64, 64}, 10);
  AnalyticalCostModel model{McmConfig{}};
  PartitionEnv env(g, model, 1e-3);
  EXPECT_FALSE(env.has_best());
  Partition fused = Partition::Empty(g.NumNodes(), 36);
  std::fill(fused.assignment.begin(), fused.assignment.end(), 0);
  const double r1 = env.Reward(fused);
  ASSERT_TRUE(env.has_best());
  EXPECT_EQ(env.best_partition(), fused);
  EXPECT_DOUBLE_EQ(env.best_reward(), r1);
  // A better (two-chip) partition replaces the incumbent.
  Partition split = fused;
  for (int u = g.NumNodes() / 2; u < g.NumNodes(); ++u) {
    split.assignment[static_cast<std::size_t>(u)] = 1;
  }
  const double r2 = env.Reward(split);
  if (r2 > r1) {
    EXPECT_EQ(env.best_partition(), split);
  } else {
    EXPECT_EQ(env.best_partition(), fused);
  }
}

}  // namespace
}  // namespace mcm
