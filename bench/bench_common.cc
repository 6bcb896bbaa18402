#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/env.h"
#include "common/logging.h"
#include "common/stats.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "partition/heuristics.h"
#include "rl/env.h"
#include "runtime/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm::bench {
namespace {

// Geomean across graphs at each sample index; inputs must share lengths.
std::vector<double> GeomeanCurves(
    const std::vector<std::vector<double>>& curves) {
  MCM_CHECK(!curves.empty());
  const std::size_t length = curves.front().size();
  std::vector<double> out(length, 0.0);
  for (std::size_t i = 0; i < length; ++i) {
    double log_sum = 0.0;
    for (const auto& curve : curves) {
      log_sum += std::log(std::max(curve[i], 1e-6));
    }
    out[i] = std::exp(log_sum / static_cast<double>(curves.size()));
  }
  return out;
}

// Runs the five methods on one (context, env) pair and returns their
// best-so-far curves of equal length `budget`.
std::vector<std::vector<double>> RunMethodsOnGraph(
    const BenchScaleConfig& config, const Checkpoint& checkpoint,
    GraphContext& context, PartitionEnv& env, int budget,
    std::uint64_t seed) {
  std::vector<std::vector<double>> curves;
  curves.reserve(kNumMethods);
  // Random.
  {
    RandomSearch search{Rng(HashCombine(seed, 1))};
    curves.push_back(search.Run(context, env, budget).BestSoFar());
  }
  // Simulated annealing.
  {
    SimulatedAnnealing search{Rng(HashCombine(seed, 2))};
    curves.push_back(search.Run(context, env, budget).BestSoFar());
  }
  // RL from scratch.
  {
    RlConfig rl = config.rl;
    rl.seed = HashCombine(seed, 3);
    PolicyNetwork policy(rl);
    RlSearch search(policy, Rng(HashCombine(seed, 4)));
    curves.push_back(search.Run(context, env, budget).BestSoFar());
  }
  // RL zero-shot from the pre-trained checkpoint.
  {
    PolicyNetwork policy(config.rl);
    PretrainPipeline::Restore(policy, checkpoint);
    RlSearch search(policy, Rng(HashCombine(seed, 5)), /*zero_shot=*/true,
                    "RL Zeroshot");
    curves.push_back(search.Run(context, env, budget).BestSoFar());
  }
  // RL fine-tuning from the pre-trained checkpoint.
  {
    PolicyNetwork policy(config.rl);
    PretrainPipeline::Restore(policy, checkpoint);
    RlSearch search(policy, Rng(HashCombine(seed, 6)), /*zero_shot=*/false,
                    "RL Finetuning");
    curves.push_back(search.Run(context, env, budget).BestSoFar());
  }
  return curves;
}

Checkpoint Pretrain(const BenchScaleConfig& config, std::uint64_t seed,
                    double* elapsed_seconds) {
  const double start_s = telemetry::MonotonicSeconds();
  DatasetSplit split = SplitCorpus(MakeCorpus());
  split.train.resize(static_cast<std::size_t>(
      std::min<int>(config.pretrain_graphs,
                    static_cast<int>(split.train.size()))));
  split.validation.resize(static_cast<std::size_t>(
      std::min<int>(config.validation_graphs,
                    static_cast<int>(split.validation.size()))));

  AnalyticalCostModel analytical{McmConfig{}};
  PretrainConfig pretrain;
  pretrain.rl = config.rl;
  pretrain.total_samples = config.pretrain_samples;
  pretrain.num_checkpoints = config.num_checkpoints;
  pretrain.validate_every = config.validate_every;
  pretrain.validation_zeroshot_samples = 10;
  pretrain.validation_finetune_samples =
      2 * config.rl.rollouts_per_update;
  pretrain.seed = seed;
  PretrainPipeline pipeline(pretrain, analytical);
  std::vector<Checkpoint> checkpoints = pipeline.Train(split.train);
  const int best = pipeline.Validate(checkpoints, split.validation);
  if (elapsed_seconds != nullptr) {
    *elapsed_seconds = telemetry::MonotonicSeconds() - start_s;
  }
  std::printf("# pre-training: %d graphs, %d samples, %zu checkpoints, "
              "picked checkpoint %d (finetune score %.3f)\n",
              static_cast<int>(split.train.size()), config.pretrain_samples,
              checkpoints.size(), best,
              checkpoints[static_cast<std::size_t>(best)].finetune_score);
  return std::move(checkpoints[static_cast<std::size_t>(best)]);
}

}  // namespace

void InitBenchRuntime(int argc, char** argv) {
  telemetry::InitTelemetryFromEnv();
  telemetry::RegisterStandardMetrics();
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
      SetDefaultThreadCount(std::stoi(argv[i + 1]));
      ++i;
    }
  }
  std::printf("# runtime: %d worker threads (override with --threads N or "
              "MCMPART_THREADS)\n", DefaultThreadCount());
}

telemetry::RunReport MakeBenchReport(std::string_view name) {
  telemetry::RunReport report{std::string(name)};
  report.SetString("scale",
                   GetBenchScale() == BenchScale::kFull ? "full" : "quick");
  report.SetValue("threads", DefaultThreadCount());
  // bench_compare.py --gate refuses a baseline recorded on fewer cores.
  // A core-count query starts no thread, hence the NOLINT.
  const unsigned cores =
      std::thread::hardware_concurrency();  // NOLINT(mcm-raw-thread)
  report.SetValue("hardware_concurrency", cores);
  return report;
}

void AddComparison(telemetry::RunReport& report,
                   const ComparisonResult& result) {
  report.AddPhaseSeconds("pretrain", result.pretrain_seconds);
  for (const MethodCurve& curve : result.curves) {
    if (curve.best_so_far.empty()) continue;
    report.SetValue("final/" + curve.name, curve.best_so_far.back());
    report.SetValue("samples/" + curve.name,
                    static_cast<double>(curve.best_so_far.size()));
  }
}

void WriteBenchReport(const telemetry::RunReport& report) {
  const std::string path = "BENCH_" + report.name() + ".json";
  if (report.Write(path)) {
    std::printf("# wrote %s\n", path.c_str());
  }
  telemetry::WriteTraceIfConfigured();
}

BenchScaleConfig BenchScaleConfig::FromEnv() {
  BenchScaleConfig config;
  config.pretrain_graphs =
      static_cast<int>(ScaledInt("MCM_PRETRAIN_GRAPHS", 10, 66));
  config.pretrain_samples =
      static_cast<int>(ScaledInt("MCM_PRETRAIN_SAMPLES", 400, 20000));
  config.num_checkpoints =
      static_cast<int>(ScaledInt("MCM_NUM_CHECKPOINTS", 6, 200));
  config.validation_graphs =
      static_cast<int>(ScaledInt("MCM_VALIDATION_GRAPHS", 2, 5));
  config.validate_every =
      static_cast<int>(ScaledInt("MCM_VALIDATE_EVERY", 3, 1));
  config.test_graphs = static_cast<int>(ScaledInt("MCM_TEST_GRAPHS", 6, 16));
  config.corpus_budget =
      static_cast<int>(ScaledInt("MCM_CORPUS_BUDGET", 80, 4000));
  config.bert_budget =
      static_cast<int>(ScaledInt("MCM_BERT_BUDGET", 60, 700));
  config.rl = GetBenchScale() == BenchScale::kFull ? RlConfig{}
                                                   : RlConfig::Quick();
  return config;
}

ComparisonResult RunCorpusComparison(const BenchScaleConfig& config,
                                     std::uint64_t seed) {
  ComparisonResult result;
  result.best_checkpoint = Pretrain(config, seed, &result.pretrain_seconds);

  DatasetSplit split = SplitCorpus(MakeCorpus());
  split.test.resize(static_cast<std::size_t>(
      std::min<int>(config.test_graphs,
                    static_cast<int>(split.test.size()))));

  AnalyticalCostModel analytical{McmConfig{}};
  // Per-method, per-graph best-so-far curves.
  std::vector<std::vector<std::vector<double>>> per_method(kNumMethods);
  for (std::size_t gi = 0; gi < split.test.size(); ++gi) {
    const Graph& graph = split.test[gi];
    GraphContext context(graph, config.rl.num_chips);
    Rng rng(HashCombine(seed, 700 + gi));
    const BaselineResult baseline = ComputeHeuristicBaseline(
        graph, analytical, context.solver(), rng);
    MCM_CHECK(baseline.eval.valid) << graph.name();
    PartitionEnv env(graph, analytical, baseline.eval.runtime_s);
    const auto curves =
        RunMethodsOnGraph(config, result.best_checkpoint, context, env,
                          config.corpus_budget, HashCombine(seed, 900 + gi));
    for (int m = 0; m < kNumMethods; ++m) {
      per_method[static_cast<std::size_t>(m)].push_back(
          curves[static_cast<std::size_t>(m)]);
    }
    std::printf("# test graph %-14s (%3d nodes): best  ", graph.name().c_str(),
                graph.NumNodes());
    for (int m = 0; m < kNumMethods; ++m) {
      std::printf("%s=%.3f ", kMethodNames[m],
                  curves[static_cast<std::size_t>(m)].back());
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  for (int m = 0; m < kNumMethods; ++m) {
    result.curves.push_back(MethodCurve{
        kMethodNames[m],
        GeomeanCurves(per_method[static_cast<std::size_t>(m)])});
  }
  return result;
}

ComparisonResult RunBertComparison(const BenchScaleConfig& config,
                                   std::uint64_t seed) {
  ComparisonResult result;
  result.best_checkpoint = Pretrain(config, seed, &result.pretrain_seconds);

  const Graph bert = MakeBert();
  GraphContext context(bert, config.rl.num_chips);
  HardwareSim hardware;
  Rng rng(HashCombine(seed, 41));
  // The production-compiler baseline: greedy packing by weight footprint,
  // repaired to static validity.
  const Partition greedy =
      GreedyContiguousByParams(bert, config.rl.num_chips);
  const SolveResult repaired =
      RepairPartition(context.solver(), bert, greedy, rng);
  MCM_CHECK(repaired.success);
  const EvalResult baseline_eval = hardware.Evaluate(bert, repaired.partition);
  MCM_CHECK(baseline_eval.valid);
  std::printf("# BERT greedy baseline: %.3f ms / sample on hardware sim\n",
              baseline_eval.runtime_s * 1e3);
  PartitionEnv env(bert, hardware, baseline_eval.runtime_s);

  const auto curves =
      RunMethodsOnGraph(config, result.best_checkpoint, context, env,
                        config.bert_budget, HashCombine(seed, 43));
  for (int m = 0; m < kNumMethods; ++m) {
    result.curves.push_back(
        MethodCurve{kMethodNames[m], curves[static_cast<std::size_t>(m)]});
  }
  return result;
}

void PrintCurves(const std::string& title,
                 const std::vector<MethodCurve>& curves) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%8s", "samples");
  for (const MethodCurve& curve : curves) {
    std::printf("  %13s", curve.name.c_str());
  }
  std::printf("\n");
  const std::size_t length = curves.front().best_so_far.size();
  // Log-spaced checkpoints plus the final sample.
  std::vector<std::size_t> rows;
  for (std::size_t k = 1; k < length; k = std::max(k + 1, k * 3 / 2)) {
    rows.push_back(k);
  }
  rows.push_back(length);
  for (std::size_t row : rows) {
    std::printf("%8zu", row);
    for (const MethodCurve& curve : curves) {
      std::printf("  %13.3f", curve.best_so_far[row - 1]);
    }
    std::printf("\n");
  }
}

void PrintThresholdTable(const std::string& title,
                         const std::vector<MethodCurve>& curves,
                         const std::vector<double>& paper_thresholds) {
  // Locate the RL-from-scratch curve for the reduction factors.
  const MethodCurve* rl = nullptr;
  for (const MethodCurve& curve : curves) {
    if (curve.name == std::string("RL")) rl = &curve;
  }
  MCM_CHECK(rl != nullptr);

  auto samples_to = [](const MethodCurve& curve,
                       double threshold) -> std::optional<std::size_t> {
    for (std::size_t i = 0; i < curve.best_so_far.size(); ++i) {
      if (curve.best_so_far[i] >= threshold) return i + 1;
    }
    return std::nullopt;
  };

  // Substrate-relative thresholds: fractions of RL's final improvement.
  // The paper's absolute levels assume its production compiler's (much
  // weaker) baseline; the sample-efficiency comparison -- the actual claim
  // of Tables 2 and 3 -- is threshold-relative.
  std::vector<std::pair<std::string, double>> thresholds;
  const double rl_final = rl->best_so_far.back();
  for (double fraction : {0.90, 0.95, 0.99}) {
    char label[64];
    std::snprintf(label, sizeof(label), ">=%.0f%% of RL final (%.3fx)",
                  fraction * 100.0, fraction * rl_final);
    thresholds.emplace_back(label, fraction * rl_final);
  }
  for (double level : paper_thresholds) {
    char label[64];
    std::snprintf(label, sizeof(label), ">=%.2fx (paper level)", level);
    thresholds.emplace_back(label, level);
  }

  std::printf("\n%s\n", title.c_str());
  std::printf("%-32s", "threshold");
  for (const MethodCurve& curve : curves) {
    std::printf("  %18s", curve.name.c_str());
  }
  std::printf("\n");
  for (const auto& [label, level] : thresholds) {
    std::printf("%-32s", label.c_str());
    const std::optional<std::size_t> rl_samples = samples_to(*rl, level);
    for (const MethodCurve& curve : curves) {
      const std::optional<std::size_t> samples = samples_to(curve, level);
      if (!samples.has_value()) {
        std::printf("  %18s", "N.A. (N.A.)");
      } else if (rl_samples.has_value()) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%zu (%.2fx)", *samples,
                      static_cast<double>(*rl_samples) /
                          static_cast<double>(*samples));
        std::printf("  %18s", cell);
      } else {
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%zu (inf)", *samples);
        std::printf("  %18s", cell);
      }
    }
    std::printf("\n");
  }
}

}  // namespace mcm::bench
