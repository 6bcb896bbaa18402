// Shared machinery for the paper-reproduction benches: scaled budgets, the
// pre-training + comparison runners behind Figure 5 / Table 2 and Figure 6 /
// Table 3, and text rendering of curves and threshold tables.
//
// Scale: every budget is resolved through ScaledInt, so MCM_BENCH_SCALE=full
// switches to paper-scale budgets while the default "quick" settings finish
// on a single core in minutes.  Individual knobs can be overridden with the
// MCM_* environment variables named below.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "graph/graph.h"
#include "pipeline/pretrain.h"
#include "rl/policy.h"
#include "search/search.h"
#include "telemetry/report.h"

namespace mcm::bench {

// The five methods of Figures 5 and 6, in the paper's order.
inline constexpr const char* kMethodNames[] = {
    "Random", "SA", "RL", "RL Zeroshot", "RL Finetuning"};
inline constexpr int kNumMethods = 5;

// Parses the runtime flag shared by every bench binary (`--threads N` for the
// worker pool, falling back to the MCMPART_THREADS env var, else hardware
// concurrency) and configures the pool.  Prints the effective thread count
// so bench logs are self-describing.  Results are bit-identical for any thread count;
// only wall-clock changes.
void InitBenchRuntime(int argc, char** argv);

struct BenchScaleConfig {
  // Pre-training phase.
  int pretrain_graphs;     // Training-set graphs used (paper: 66).
  int pretrain_samples;    // Total pre-training samples (paper: 20000).
  int num_checkpoints;     // Checkpoints emitted (paper: 200).
  int validation_graphs;   // Validation-set graphs (paper: 5).
  int validate_every;      // Score every k-th checkpoint (paper: 1).
  // Comparison phase.
  int test_graphs;         // Test-set graphs for Fig 5 (paper: 16).
  int corpus_budget;       // Samples per method per test graph.
  int bert_budget;         // Samples per method on BERT (Fig 6).
  RlConfig rl;             // Network/PPO configuration.

  static BenchScaleConfig FromEnv();
};

// One method's best-so-far improvement curve, geomean-aggregated when the
// experiment spans several graphs.
struct MethodCurve {
  std::string name;
  std::vector<double> best_so_far;
};

struct ComparisonResult {
  std::vector<MethodCurve> curves;  // One per method, equal lengths.
  // The pre-trained policy checkpoint used by zero-shot / fine-tuning.
  Checkpoint best_checkpoint;
  double pretrain_seconds = 0.0;
};

// Runs the corpus experiment (Figure 5 / Table 2): pre-train on the train
// split against the analytical model, validate, then run all five methods
// on the test split; curves are geomeans over test graphs.
ComparisonResult RunCorpusComparison(const BenchScaleConfig& config,
                                     std::uint64_t seed);

// Runs the BERT experiment (Figure 6 / Table 3): pre-train as above, then
// run all five methods on BERT against the hardware simulator with the
// production (by-params) greedy baseline.
ComparisonResult RunBertComparison(const BenchScaleConfig& config,
                                   std::uint64_t seed);

// ---- Machine-readable reports ----------------------------------------------

// Builds a run report named `name`, pre-populated with the bench scale and
// worker thread count.  Also interns the standard metric names so the
// report's metrics section is complete even for layers a bench never hits.
telemetry::RunReport MakeBenchReport(std::string_view name);

// Records a comparison's headline numbers: "final/<method>" (last point of
// each best-so-far curve), per-method curve lengths, and pre-training time.
void AddComparison(telemetry::RunReport& report,
                   const ComparisonResult& result);

// Writes the report to BENCH_<name>.json in the current directory (the
// repo's perf-trajectory convention) and prints the path.
void WriteBenchReport(const telemetry::RunReport& report);

// ---- Rendering --------------------------------------------------------------

// Prints "sample_count  <one column per curve>" rows at log-ish checkpoints.
void PrintCurves(const std::string& title,
                 const std::vector<MethodCurve>& curves);

// Prints the samples-to-threshold table (Tables 2 and 3): absolute paper
// thresholds plus substrate-relative thresholds (fractions of the RL
// curve's final value), with the reduction factor versus RL-from-scratch.
void PrintThresholdTable(const std::string& title,
                         const std::vector<MethodCurve>& curves,
                         const std::vector<double>& paper_thresholds);

}  // namespace mcm::bench
