// pretrain: offline PPO pre-training in a closed loop, the way
// PretrainPipeline::Train runs it -- PpoTrainer::Iterate round-robin over
// BuildGraphTasks on the training-split graphs in a seeded order,
// RlConfig::Quick() at 36 chips, the analytical reward, the same number of
// updates per graph.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "pipeline/pretrain.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kNumChips = 36;
// The tail percentile (p90) needs 100 updates (2 rounds of 66) to have 10
// beyond it.  The run does whole rounds, as many as --seconds holds at a
// nominal round time measured on a 4-vCPU host: the work is a function of
// the arguments, not of elapsed time, so every run at one --seconds does
// the same number of updates.
constexpr double kTailLevel = 0.90;
constexpr int kMinRounds = 2;
constexpr double kNominalRoundSeconds = 7.0;
constexpr int kSetupRepeats = 21;

// Every seed trains on the whole training split (66 graphs, 17-388 nodes)
// in a seeded round-robin order.  A seeded subset made the per-update
// percentiles and peak memory depend on which graphs a seed drew.
std::vector<mcm::Graph> TrainingGraphs(std::uint64_t seed) {
  std::vector<mcm::Graph> train = mcm::SplitCorpus(mcm::MakeCorpus()).train;
  mcm::Rng rng(mcm::HashCombine(seed, 0x64726177ULL));
  rng.Shuffle(train);
  return train;
}

struct Inputs {
  std::vector<mcm::Graph> graphs;
  std::unique_ptr<mcm::AnalyticalCostModel> model;
  std::vector<mcm::GraphTask> tasks;
};

mcm::RlConfig TrainerConfig(std::uint64_t seed) {
  mcm::RlConfig config = mcm::RlConfig::Quick();
  config.num_chips = kNumChips;
  config.seed = mcm::HashCombine(seed, 3);
  return config;
}

}  // namespace

void RunPretrain(const Options& options, Result& result, WorkloadOutput& out) {
  mcm::SetDefaultThreadCount(Nproc());
  PrintProvenance(options, mcm::DefaultThreadCount(), mcm::NnThreadCount(),
                  "closed loop, one process, rollouts in parallel");

  Inputs in;
  out.setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    in = Inputs{};
    in.graphs = TrainingGraphs(options.seed);
    in.model = std::make_unique<mcm::AnalyticalCostModel>(mcm::McmConfig{});
    in.tasks = mcm::BuildGraphTasks(in.graphs, *in.model, kNumChips,
                                    mcm::HashCombine(options.seed, 0x7261696eULL));
  });
  result.Check(in.tasks.size() == in.graphs.size(),
               "every drawn graph has a valid heuristic baseline");

  // ---- Untraced: the end-to-end numbers. ----
  const mcm::RlConfig config = TrainerConfig(options.seed);
  mcm::PolicyNetwork policy(config);
  mcm::PpoTrainer trainer(policy, mcm::Rng(mcm::HashCombine(options.seed, 1)));
  MetricsWindow counters;
  std::vector<double> update_s;
  std::vector<std::vector<double>> rewards;
  std::vector<double> losses;
  std::int64_t samples = 0;
  // Rollouts per second of each round: every round trains on every graph
  // once, so rounds do comparable work and their median filters a
  // transient stall of the host.
  std::vector<double> round_samples_per_s;
  const int rounds = std::max(
      kMinRounds,
      static_cast<int>(std::lround(options.seconds / kNominalRoundSeconds)));
  const double start = Now();
  for (int round = 0; round < rounds; ++round) {
    const double round_start = Now();
    std::int64_t round_samples = 0;
    for (mcm::GraphTask& task : in.tasks) {
      const double t0 = Now();
      const mcm::PpoTrainer::IterationResult r =
          trainer.Iterate(*task.context, *task.env);
      update_s.push_back(Now() - t0);
      round_samples += static_cast<std::int64_t>(r.rewards.size());
      rewards.push_back(r.rewards);
      losses.push_back(r.mean_loss);
    }
    samples += round_samples;
    round_samples_per_s.push_back(static_cast<double>(round_samples) /
                                  (Now() - round_start));
  }
  const double untraced_wall = Now() - start;
  counters.Close();

  out.p50_ms = Median(update_s) * 1e3;
  out.tail_ms = Percentile(update_s, kTailLevel) * 1e3;
  out.tail_label = "p90";
  out.throughput_per_s = Median(round_samples_per_s);
  result.attempted = static_cast<std::int64_t>(update_s.size());
  std::printf("# pretrain: %zu graphs x %d rounds = %zu updates, %lld "
              "rollouts in %.3f s\n",
              in.tasks.size(), rounds, update_s.size(),
              static_cast<long long>(samples), untraced_wall);

  // Output checks on what training returned: each graph's incumbent.
  mcm::AnalyticalCostModel fresh{mcm::McmConfig{}};
  for (const mcm::GraphTask& task : in.tasks) {
    if (!task.env->has_best()) continue;
    const mcm::Partition& best = task.env->best_partition();
    result.Check(StaticallyValid(*task.graph, best),
                 "pretrain incumbent violates a static constraint on " +
                     task.graph->name());
    const mcm::EvalResult again = fresh.Evaluate(*task.graph, best);
    result.Check(again.valid && task.baseline_runtime_s / again.runtime_s ==
                                    task.env->best_reward(),
                 "pretrain incumbent re-evaluates to a different runtime on " +
                     task.graph->name());
  }

  if (!options.trace) return;

  // ---- Traced: replay the same updates through their public parts. ----
  auto& L = out.layers;
  L["pretrain.update_s.p50"] = out.p50_ms / 1e3;
  L["pretrain.update_s.p90"] = out.tail_ms / 1e3;
  L["pretrain.samples_per_s"] = out.throughput_per_s;
  L["runtime.queue_wait_us.p50"] =
      counters.HistogramQuantile("runtime/queue_wait_us", 0.50);
  L["runtime.queue_wait_us.p99"] =
      counters.HistogramQuantile("runtime/queue_wait_us", 0.99);
  L["runtime.tasks_per_update"] =
      counters.Ratio("runtime/tasks_executed", "rl/policy_updates");
  L["costmodel.delta_fast_frac"] =
      static_cast<double>(counters.Count("costmodel/delta_fast")) /
      std::max<std::int64_t>(1, counters.Count("costmodel/delta_fast") +
                                    counters.Count("costmodel/delta_fallback") +
                                    counters.Count("costmodel/delta_rebuild"));
  L["costmodel.eval_cache_hit_frac"] =
      static_cast<double>(counters.Count("costmodel/eval_cache_hits")) /
      std::max<std::int64_t>(1, counters.Count("costmodel/eval_cache_hits") +
                                    counters.Count("costmodel/eval_cache_misses"));
  L["rl.invalid_frac"] = counters.Ratio("rl/invalid_episodes", "rl/episodes");
  L["rl.embed_cache_hit_frac"] =
      static_cast<double>(counters.Count("rl/embed_cache_hits")) /
      std::max<std::int64_t>(1, counters.Count("rl/embed_cache_hits") +
                                    counters.Count("rl/embed_cache_misses"));
  L["solver.backtracks_per_solve"] =
      counters.Ratio("solver/backtracks", "solver/sample_solves");
  L["solver.propagations_per_solve"] =
      counters.Ratio("solver/propagations", "solver/sample_solves");
  L["solver.degraded_frac"] =
      counters.Ratio("solver/degraded_solves", "solver/sample_solves");

  // Fresh environments: same construction as BuildGraphTasks, but private
  // caches so the replay does not hit entries the untraced pass left.
  std::vector<std::unique_ptr<mcm::PartitionEnv>> envs;
  for (const mcm::GraphTask& task : in.tasks) {
    envs.push_back(std::make_unique<mcm::PartitionEnv>(
        *task.graph, *in.model, task.baseline_runtime_s,
        mcm::PartitionEnv::Objective::kThroughput,
        /*eval_cache_capacity=*/-1, /*fallback_model=*/nullptr));
  }
  mcm::PolicyNetwork replay_policy(config);
  mcm::PpoTrainer replay(replay_policy,
                         mcm::Rng(mcm::HashCombine(options.seed, 1)));
  EnableSpans(true);
  std::vector<ReplayLog> logs(in.tasks.size());
  const double traced_start = Now();
  std::size_t update = 0;
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t t = 0; t < in.tasks.size(); ++t, ++update) {
      const mcm::PpoTrainer::IterationResult r =
          ReplayIterate(replay, *in.tasks[t].context, *envs[t], &logs[t]);
      result.Check(SameBits(r.rewards, rewards[update]) &&
                       SameBits(std::vector<double>{r.mean_loss}, std::vector<double>{losses[update]}),
                   "replayed update " + std::to_string(update) +
                       " differs from Iterate");
    }
  }
  const double traced_end = Now();
  EnableSpans(false);
  result.Check(SameBits(mcm::SnapshotParams(policy.Params()),
                        mcm::SnapshotParams(replay_policy.Params())),
               "replayed training ends at different parameters");
  for (std::size_t t = 0; t < in.tasks.size(); ++t) {
    result.Check(envs[t]->best_reward() == in.tasks[t].env->best_reward() &&
                     envs[t]->best_partition() == in.tasks[t].env->best_partition(),
                 "replayed incumbent differs on " + in.tasks[t].graph->name());
  }

  // Every replayed placement: static constraints, and a fresh cost model
  // gives the reward the run recorded.  Timing the fresh evaluation is the
  // cost model's own per-call cost.
  std::vector<double> evaluate_s;
  for (std::size_t t = 0; t < in.tasks.size(); ++t) {
    const mcm::Graph& graph = *in.tasks[t].graph;
    for (std::size_t k = 0; k < logs[t].placements.size(); ++k) {
      const mcm::Partition& p = logs[t].placements[k];
      result.Check(StaticallyValid(graph, p),
                   "replayed placement violates a static constraint");
      const double t0 = Now();
      const mcm::EvalResult again = fresh.Evaluate(graph, p);
      evaluate_s.push_back(Now() - t0);
      result.Check(again.valid && in.tasks[t].baseline_runtime_s /
                                          again.runtime_s ==
                                      logs[t].rewards[k],
                   "replayed placement re-evaluates to a different runtime");
    }
  }

  const std::vector<Span> spans = TakeSpans();
  L["layer.coverage_frac"] = PrintLayerTable(spans, traced_start, traced_end);
  L["telemetry.trace_overhead_frac"] =
      (traced_end - traced_start) / untraced_wall - 1.0;
  L["nn.minibatch_loss_ms.p50"] = SpanP50Ms(spans, "nn/minibatch_loss");
  L["nn.backward_ms.p50"] = SpanP50Ms(spans, "nn/backward");
  L["nn.adam_ms.p50"] = SpanP50Ms(spans, "nn/adam");
  const double updates = static_cast<double>(update);
  double collect_s = 0.0, update_total_s = 0.0;
  for (double d : SpanDurations(spans, "rl/collect")) collect_s += d;
  for (double d : SpanDurations(spans, "rl/update")) update_total_s += d;
  L["rl.collect_s"] = collect_s / updates;
  L["rl.update_s"] = update_total_s / updates;
  L["rl.sample_rollout_ms.p50"] = SpanP50Ms(spans, "rl/sample_rollout");
  L["solver.sample_ms.p50"] = SpanP50Ms(spans, "solver/correct_rollout");
  L["costmodel.evaluate_us.p50"] = Median(evaluate_s) * 1e6;
}

}  // namespace perfbench
