// perfbench: the partitioner's end-to-end benchmark (see README.md).
//
//   perfbench --workload pretrain|bert_search|serve --seed N --seconds S
//             --trace 0|1 [--revision R]
//
// Prints `#` comment lines (provenance, progress, the traced layer table)
// and, as the last line, one JSON object: correct, attempted, failed and
// the metrics -- the end-to-end ones untraced, the per-layer ones traced.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "telemetry/metrics.h"
#include "workloads.h"

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (their meaning per
// workload is in README.md).
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},        {"tail_ms", "ms"},
    {"throughput_per_s", "1/s"}};

// The per-layer metrics; a workload that does not exercise a layer
// reports 0 for it.
constexpr MetricName kPerLayer[] = {
    {"pretrain.update_s.p50", "s"},
    {"pretrain.update_s.p90", "s"},
    {"pretrain.samples_per_s", "1/s"},
    {"bert.sa_s_per_sample", "s"},
    {"bert.zeroshot_s_per_sample", "s"},
    {"bert.finetune_s_per_sample", "s"},
    {"serve.light.p50_ms", "ms"},
    {"serve.light.p99_ms", "ms"},
    {"serve.heavy.p50_ms", "ms"},
    {"serve.heavy.p99_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"nn.minibatch_loss_ms.p50", "ms"},
    {"nn.backward_ms.p50", "ms"},
    {"nn.adam_ms.p50", "ms"},
    {"runtime.queue_wait_us.p50", "us"},
    {"runtime.queue_wait_us.p99", "us"},
    {"runtime.tasks_per_update", "count"},
    {"rl.collect_s", "s"},
    {"rl.update_s", "s"},
    {"rl.sample_rollout_ms.p50", "ms"},
    {"rl.embed_cache_hit_frac", "fraction"},
    {"rl.invalid_frac", "fraction"},
    {"solver.sample_ms.p50", "ms"},
    {"solver.backtracks_per_solve", "count"},
    {"solver.propagations_per_solve", "count"},
    {"solver.degraded_frac", "fraction"},
    {"solver.probe_ms.p50", "ms"},
    {"solver.probe_accept_frac", "fraction"},
    {"costmodel.evaluate_us.p50", "us"},
    {"costmodel.delta_fast_frac", "fraction"},
    {"costmodel.eval_cache_hit_frac", "fraction"},
    {"hwsim.simulate_ms.p50", "ms"},
    {"hwsim.oom_frac", "fraction"},
    {"graph.deserialize_ms.p50", "ms"},
    {"partition.baseline_ms.p50", "ms"},
    {"search.hillclimb_ms.p50", "ms"},
    {"search.random_ms.p50", "ms"},
    {"service.execute_ms.p50", "ms"},
    {"service.execute_ms.p99", "ms"},
    {"service.protocol_us.p50", "us"},
    {"service.overhead_ms.p50", "ms"},
    {"service.overhead_ms.p99", "ms"},
    {"service.batch_size.mean", "count"},
    {"service.rejected_frac", "fraction"},
    {"service.cache_hit_frac", "fraction"},
    {"loadgen.lag_ms.p99", "ms"},
    {"telemetry.trace_overhead_frac", "fraction"},
    {"layer.coverage_frac", "fraction"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pretrain|bert_search|serve --seed N --seconds S --trace 0|1 "
               "[--revision R]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options ParseOptions(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (arg == "--revision") {
        options.revision = value;
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg + ": " + value);
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.seconds <= 0.0) Usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = ParseOptions(argc, argv);
  mcm::telemetry::RegisterStandardMetrics();
  perfbench::Result result;
  perfbench::WorkloadOutput out;
  try {
    if (options.workload == "pretrain") {
      perfbench::RunPretrain(options, result, out);
    } else if (options.workload == "bert_search") {
      perfbench::RunBertSearch(options, result, out);
    } else if (options.workload == "serve") {
      perfbench::RunServe(options, result, out);
    } else {
      Usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // Retries happen only under fault injection; without it the retry
  // wrapper must stay a no-op.
  for (const auto& [name, value] : mcm::telemetry::SnapshotMetrics().counters) {
    if (name == "faults/retries") {
      result.Check(value == 0, "faults/retries is " + std::to_string(value));
    }
  }

  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = out.layers.find(name);
      result.Metric(name, it == out.layers.end() ? 0.0 : it->second, unit);
    }
  } else {
    const double values[] = {out.setup_s, perfbench::PeakRssMb(), out.p50_ms,
                             out.tail_ms, out.throughput_per_s};
    static_assert(std::size(values) == std::size(kEndToEnd));
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      result.Metric(kEndToEnd[i].name, values[i], kEndToEnd[i].unit);
    }
    std::printf("# tail_ms is %s\n", out.tail_label.c_str());
  }
  result.Print();
  return result.correct() ? 0 : 1;
}
