// Cost-model interface and the paper's analytical cost model.
//
// The RL reward, the search baselines, and the pre-training pipeline all
// evaluate candidate partitions through this interface.  Two implementations
// exist:
//   * AnalyticalCostModel (this file) -- the paper's fast pre-training
//     reward: per-chip latency of all nodes assigned to the chip, runtime =
//     max over chips (the pipeline bottleneck), throughput = 1 / runtime.
//     It never rejects a statically valid partition (no dynamic constraint).
//   * HardwareSim (hwsim/) -- the "real hardware" substitute: cycle-level
//     pipeline simulation with SRAM allocation; enforces H(G, f).
#pragma once

#include <memory>
#include <string>

#include "graph/graph.h"
#include "partition/partition.h"

namespace mcm {

// Why an evaluation failed (mirrors the paper's invalid-sample taxonomy,
// plus the transient platform failures a real measurement harness sees).
enum class EvalFailure {
  kNone = 0,
  kStaticConstraint,  // Violates Eq. (2)/(3)/(4); checked by every model.
  kOutOfMemory,       // Dynamic constraint H: some chip exceeds its SRAM.
  kTimeout,           // Evaluation exceeded its deadline; retryable.
  kEvaluatorError,    // Platform reported a bogus measurement; retryable.
};

struct EvalResult {
  bool valid = false;
  EvalFailure failure = EvalFailure::kNone;
  // Pipeline interval of the bottleneck chip, in seconds; the reciprocal of
  // throughput.  Meaningful only when valid.
  double runtime_s = 0.0;
  // Samples/sec at steady state (1 / runtime_s).
  double throughput = 0.0;
  // End-to-end latency of a single sample through the pipeline (fill time:
  // the sum of per-chip stage times rather than their max).  The paper's
  // Section 5.1 notes the framework "can easily re-target a latency
  // metric"; PartitionEnv::Objective::kLatency optimizes this value.
  double latency_s = 0.0;

  static EvalResult Invalid(EvalFailure why) {
    EvalResult r;
    r.failure = why;
    return r;
  }
  static EvalResult Valid(double runtime_s, double latency_s = 0.0) {
    EvalResult r;
    r.valid = true;
    r.runtime_s = runtime_s;
    r.throughput = runtime_s > 0.0 ? 1.0 / runtime_s : 0.0;
    r.latency_s = latency_s > 0.0 ? latency_s : runtime_s;
    return r;
  }
};

// Transient failures are worth retrying; deterministic rejections
// (static/memory constraints) are not.  A "valid" result carrying a
// non-finite cost is also transient: it models a corrupted measurement.
bool IsTransientEvalFailure(const EvalResult& result);

// Physical parameters of the MCM package (Section 3: a 36-chiplet package,
// tens of MBs of SRAM per chiplet, tens of GB/s uni-directional links).
struct McmConfig {
  int num_chips = 36;
  double chip_flops_per_s = 2e12;      // Per-chiplet peak compute.
  double sram_bytes_per_chip = 64e6;   // Per-chiplet SRAM.
  double link_bandwidth_bytes_per_s = 25e9;
  double link_latency_s = 1e-6;        // Per-transfer fixed overhead.
  // Fraction of peak compute reachable by low-arithmetic-intensity ops.
  double effective_utilization = 0.6;

  bool operator==(const McmConfig&) const = default;
};

// Abstract evaluator of (graph, partition) -> throughput.
class CostModel {
 public:
  virtual ~CostModel() = default;

  // Evaluates a candidate partition.  Implementations must reject
  // statically invalid partitions (returning kStaticConstraint) so that the
  // "RL without constraint solver" baseline observes zero reward exactly as
  // in the paper.
  //
  // Thread safety: Evaluate is called concurrently from the parallel
  // rollout/validation paths (see runtime/thread_pool.h), so
  // implementations must be stateless with respect to Evaluate -- pure
  // functions of (graph, partition) and construction-time options.  Both
  // bundled models (analytical, hwsim) satisfy this; hwsim's measurement
  // noise is a stateless hash of (graph, partition).
  virtual EvalResult Evaluate(const Graph& graph,
                              const Partition& partition) = 0;

  virtual std::string name() const = 0;
};

// The paper's analytical model: latency(chip) = compute time of its nodes
// plus ingress/egress transfer time of its cut edges; runtime = max latency
// over used chips.
class AnalyticalCostModel final : public CostModel {
 public:
  explicit AnalyticalCostModel(McmConfig config) : config_(config) {}

  EvalResult Evaluate(const Graph& graph, const Partition& partition) override;
  std::string name() const override { return "analytical"; }

  const McmConfig& config() const { return config_; }

 private:
  const McmConfig config_;
};

}  // namespace mcm
