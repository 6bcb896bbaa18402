// bert_search: the paper's deployment (Fig. 6 / Table 3) -- BERT (2138
// nodes) at 36 chips on hwsim, SA, RL zero-shot and RL fine-tune at fixed
// sample budgets, in a closed loop.  Fine-tune and zero-shot start from a
// warm-start checkpoint made in set-up by a short fixed-seed pretrain.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "partition/heuristics.h"
#include "pipeline/pretrain.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kNumChips = 36;
constexpr int kSetupRepeats = 9;
// Whole rounds of the three methods, one per kSecondsPerRound of --seconds
// (a round takes about 7 s on a 4-vCPU host, so a run overshoots --seconds
// to give the per-round medians four rounds at --seconds 20).  The work is
// a function of the arguments: every run at one --seconds makes the same
// calls.
constexpr double kSecondsPerRound = 5.0;
// Per-call sample budgets.  Fine-tune runs one PPO update of 20 samples.
constexpr int kSaBudget = 20;
constexpr int kZeroShotBudget = 20;
constexpr int kFinetuneBudget = 20;
// SA's cost is heavy-tailed in its seed: on 10 seeds, 6 took 3.6-4.7 s
// for 20 samples, one 20 s and three over 25 s, because one proposal can
// send the solver into deep backtracking.  A seeded SA stream would let a
// single solve decide the run, so every SA call replays one fixed stream
// (seed 2: 7032 backtracks over 20 solves); zero-shot and fine-tune draw
// from the run seed.
constexpr std::uint64_t kSaSeed = 2;
// The warm start: a short pretrain on the smallest training graphs with a
// seed that never changes, so every run deploys the same checkpoint.
constexpr std::uint64_t kWarmStartSeed = 20220301;
constexpr int kWarmStartGraphs = 3;
constexpr int kWarmStartSamples = 60;

enum class Method { kSa, kZeroShot, kFinetune };
constexpr Method kMethods[] = {Method::kSa, Method::kZeroShot,
                               Method::kFinetune};

const char* MethodName(Method m) {
  switch (m) {
    case Method::kSa: return "sa";
    case Method::kZeroShot: return "zeroshot";
    case Method::kFinetune: return "finetune";
  }
  return "?";
}

int Budget(Method m) {
  switch (m) {
    case Method::kSa: return kSaBudget;
    case Method::kZeroShot: return kZeroShotBudget;
    case Method::kFinetune: return kFinetuneBudget;
  }
  return 0;
}

mcm::RlConfig PolicyConfig() {
  mcm::RlConfig config = mcm::RlConfig::Quick();
  config.num_chips = kNumChips;
  return config;
}

mcm::Checkpoint WarmStart() {
  mcm::DatasetSplit split = mcm::SplitCorpus(mcm::MakeCorpus());
  std::stable_sort(split.train.begin(), split.train.end(),
                   [](const mcm::Graph& a, const mcm::Graph& b) {
                     return a.NumNodes() < b.NumNodes();
                   });
  split.train.resize(kWarmStartGraphs);
  mcm::AnalyticalCostModel analytical{mcm::McmConfig{}};
  mcm::PretrainConfig config;
  config.rl = PolicyConfig();
  config.total_samples = kWarmStartSamples;
  config.num_checkpoints = 1;
  config.seed = kWarmStartSeed;
  mcm::PretrainPipeline pipeline(config, analytical);
  std::vector<mcm::Checkpoint> checkpoints = pipeline.Train(split.train);
  return std::move(checkpoints.back());
}

struct Inputs {
  std::unique_ptr<mcm::Graph> bert;
  std::unique_ptr<mcm::GraphContext> context;
  std::unique_ptr<mcm::HardwareSim> hardware;
  double baseline_runtime_s = 0.0;
  mcm::Checkpoint checkpoint;
};

// One method call: its seed stream, and what it returned.
struct Call {
  Method method;
  std::uint64_t seed;
  double wall_s = 0.0;
  mcm::SearchTrace trace;
  mcm::Partition best;
  double best_reward = 0.0;
  std::vector<mcm::Matrix> final_params;  // Fine-tune only.
};

std::unique_ptr<mcm::PartitionEnv> FreshEnv(const Inputs& in) {
  return std::make_unique<mcm::PartitionEnv>(*in.bert, *in.hardware,
                                             in.baseline_runtime_s);
}

// Runs one call through the library's public entry points.
void RunCall(const Inputs& in, Call& call) {
  std::unique_ptr<mcm::PartitionEnv> env = FreshEnv(in);
  const double t0 = Now();
  if (call.method == Method::kSa) {
    mcm::SimulatedAnnealing sa{mcm::Rng(call.seed)};
    call.trace = sa.Run(*in.context, *env, kSaBudget);
  } else {
    mcm::PolicyNetwork policy(PolicyConfig());
    mcm::PretrainPipeline::Restore(policy, in.checkpoint);
    mcm::RlSearch search(policy, mcm::Rng(call.seed),
                         call.method == Method::kZeroShot);
    call.trace = search.Run(*in.context, *env, Budget(call.method));
    if (call.method == Method::kFinetune) {
      call.final_params = mcm::SnapshotParams(policy.Params());
    }
  }
  call.wall_s = Now() - t0;
  call.best_reward = env->best_reward();
  if (env->has_best()) call.best = env->best_partition();
}

}  // namespace

void RunBertSearch(const Options& options, Result& result,
                   WorkloadOutput& out) {
  mcm::SetDefaultThreadCount(Nproc());
  PrintProvenance(options, mcm::DefaultThreadCount(), mcm::NnThreadCount(),
                  "closed loop, one process, hwsim reward");

  Inputs in;
  out.setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    in = Inputs{};
    in.bert = std::make_unique<mcm::Graph>(mcm::MakeBert());
    in.context = std::make_unique<mcm::GraphContext>(*in.bert, kNumChips);
    in.hardware = std::make_unique<mcm::HardwareSim>();
    // The production-compiler baseline, as the Table 3 bench builds it.
    mcm::Rng rng(mcm::HashCombine(options.seed, 41));
    const mcm::SolveResult repaired = mcm::RepairPartition(
        in.context->solver(), *in.bert,
        mcm::GreedyContiguousByParams(*in.bert, kNumChips), rng);
    const mcm::EvalResult baseline =
        in.hardware->Evaluate(*in.bert, repaired.partition);
    in.baseline_runtime_s = baseline.runtime_s;
    result.Check(repaired.success && baseline.valid,
                 "BERT heuristic baseline is valid on hwsim");
    in.checkpoint = WarmStart();
  });

  // ---- Untraced: rounds of SA, zero-shot and fine-tune. ----
  MetricsWindow counters;
  std::vector<Call> calls;
  const int rounds = std::max(
      1, static_cast<int>(std::lround(options.seconds / kSecondsPerRound)));
  // Wall time per sample of each whole round; the per-method figures are
  // per-layer metrics.
  std::vector<double> round_ms_per_sample;
  const double start = Now();
  for (int round = 0; round < rounds; ++round) {
    double round_s = 0.0;
    int round_samples = 0;
    for (Method method : kMethods) {
      Call call{method,
                method == Method::kSa
                    ? kSaSeed
                    : mcm::HashCombine(options.seed,
                                       100 + 3 * round + static_cast<int>(method))};
      RunCall(in, call);
      round_s += call.wall_s;
      round_samples += Budget(method);
      std::printf("# round %d %-8s %6.3f s, %.4f s per sample, best %.4f\n",
                  round, MethodName(method), call.wall_s,
                  call.wall_s / Budget(method), call.best_reward);
      std::fflush(stdout);
      calls.push_back(std::move(call));
    }
    round_ms_per_sample.push_back(round_s / round_samples * 1e3);
  }
  const double untraced_wall = Now() - start;
  counters.Close();

  double method_s[3] = {0, 0, 0};
  int method_samples[3] = {0, 0, 0};
  std::vector<double> method_s_per_sample[3];
  std::int64_t samples = 0;
  for (const Call& call : calls) {
    const int budget = Budget(call.method);
    const int i = static_cast<int>(call.method);
    method_s[i] += call.wall_s;
    method_samples[i] += budget;
    method_s_per_sample[i].push_back(call.wall_s / budget);
    samples += budget;
  }
  // p50: each method's median over rounds of its time per sample, averaged
  // over the methods (equal budgets), so every method moves it and one slow
  // call does not.  Throughput: the median round's samples per second.
  out.p50_ms = 0.0;
  for (const auto& per_sample : method_s_per_sample) {
    out.p50_ms += Median(per_sample) * 1e3 / std::size(kMethods);
  }
  const Tail tail = HighestSupportedTail(round_ms_per_sample);
  out.tail_ms = tail.value;
  out.tail_label = tail.label + " over rounds of wall time per sample";
  out.throughput_per_s = 1e3 / Median(round_ms_per_sample);
  result.attempted = static_cast<std::int64_t>(calls.size());
  std::printf("# bert_search: %zu calls (%lld samples) in %.3f s\n",
              calls.size(), static_cast<long long>(samples), untraced_wall);
  for (Method m : kMethods) {
    const int i = static_cast<int>(m);
    std::printf("# bert.%s_s_per_sample %.4f\n", MethodName(m),
                method_s[i] / method_samples[i]);
  }

  // Output checks: each call's placement on a fresh simulator.
  mcm::HardwareSim fresh;
  for (const Call& call : calls) {
    // A call whose samples all hit the dynamic (memory) constraint returns
    // no placement; that is a search outcome (rl.invalid_frac, hwsim.oom_frac).
    if (call.best_reward <= 0.0) continue;
    result.Check(StaticallyValid(*in.bert, call.best),
                 std::string("BERT placement violates a static constraint (") +
                     MethodName(call.method) + ")");
    const mcm::EvalResult again = fresh.Evaluate(*in.bert, call.best);
    result.Check(again.valid &&
                     in.baseline_runtime_s / again.runtime_s == call.best_reward,
                 std::string("BERT placement re-evaluates differently (") +
                     MethodName(call.method) + ")");
  }

  if (!options.trace) return;

  // ---- Traced: the same calls, RL ones replayed through their parts. ----
  auto& L = out.layers;
  for (Method m : kMethods) {
    const int i = static_cast<int>(m);
    L[std::string("bert.") + MethodName(m) + "_s_per_sample"] =
        method_s[i] / method_samples[i];
  }
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
  L["hwsim.oom_frac"] =
      counters.Ratio("hwsim/oom_rejections", "hwsim/simulations");
  L["runtime.queue_wait_us.p50"] =
      counters.HistogramQuantile("runtime/queue_wait_us", 0.50);
  L["runtime.queue_wait_us.p99"] =
      counters.HistogramQuantile("runtime/queue_wait_us", 0.99);

  EnableSpans(true);
  std::vector<ReplayLog> logs;
  const double traced_start = Now();
  for (const Call& call : calls) {
    std::unique_ptr<mcm::PartitionEnv> env = FreshEnv(in);
    ReplayLog log;
    mcm::SearchTrace trace;
    std::vector<mcm::Matrix> params;
    if (call.method == Method::kSa) {
      ScopedSpan span("search/sa");
      mcm::SimulatedAnnealing sa{mcm::Rng(call.seed)};
      trace = sa.Run(*in.context, *env, kSaBudget);
    } else {
      ScopedSpan span(call.method == Method::kZeroShot ? "search/rl_zeroshot"
                                                       : "search/rl_finetune");
      mcm::PolicyNetwork policy(PolicyConfig());
      mcm::PretrainPipeline::Restore(policy, in.checkpoint);
      mcm::PpoTrainer trainer(policy, mcm::Rng(call.seed));
      trace = ReplayRlSearch(trainer, *in.context, *env, Budget(call.method),
                             call.method == Method::kZeroShot, &log);
      if (call.method == Method::kFinetune) {
        params = mcm::SnapshotParams(policy.Params());
      }
    }
    result.Check(SameBits(trace.rewards, call.trace.rewards) &&
                     env->best_reward() == call.best_reward &&
                     (!env->has_best() || env->best_partition() == call.best) &&
                     SameBits(params, call.final_params),
                 std::string("traced ") + MethodName(call.method) +
                     " call differs from the untraced one");
    logs.push_back(std::move(log));
  }
  const double traced_end = Now();
  EnableSpans(false);

  std::vector<double> simulate_s;
  for (const ReplayLog& log : logs) {
    for (std::size_t k = 0; k < log.placements.size(); ++k) {
      result.Check(StaticallyValid(*in.bert, log.placements[k]),
                   "replayed BERT placement violates a static constraint");
      const double t0 = Now();
      const mcm::EvalResult again = fresh.Evaluate(*in.bert, log.placements[k]);
      simulate_s.push_back(Now() - t0);
      const double reward =
          again.valid ? in.baseline_runtime_s / again.runtime_s : 0.0;
      result.Check(reward == log.rewards[k],
                   "replayed BERT placement re-evaluates differently");
    }
  }

  const std::vector<Span> spans = TakeSpans();
  L["layer.coverage_frac"] = PrintLayerTable(spans, traced_start, traced_end);
  L["telemetry.trace_overhead_frac"] =
      (traced_end - traced_start) / untraced_wall - 1.0;
  L["nn.minibatch_loss_ms.p50"] = SpanP50Ms(spans, "nn/minibatch_loss");
  L["nn.backward_ms.p50"] = SpanP50Ms(spans, "nn/backward");
  L["nn.adam_ms.p50"] = SpanP50Ms(spans, "nn/adam");
  L["rl.sample_rollout_ms.p50"] = SpanP50Ms(spans, "rl/sample_rollout");
  L["solver.sample_ms.p50"] = SpanP50Ms(spans, "solver/correct_rollout");
  L["hwsim.simulate_ms.p50"] = Median(simulate_s) * 1e3;
}

}  // namespace perfbench
