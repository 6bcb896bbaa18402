// Fault injection, retry/backoff, and graceful degradation for hardware
// evaluations.
//
// A real measurement harness occasionally times out, reports a spurious
// rejection, or returns a corrupted (NaN) cost.  This library makes those
// failure modes reproducible and survivable:
//
//   * FaultInjector -- a deterministic, hash-seeded fault source.  Whether
//     evaluation attempt (key, attempt#) fails is a pure function of
//     (seed, key, attempt#), so a faulty run is exactly repeatable at any
//     thread count.  Enabled via MCMPART_FAULT_RATE / MCMPART_FAULT_KINDS /
//     MCMPART_FAULT_SEED; HardwareSim consults the process-global injector.
//   * RetryPolicy -- exponential backoff with deterministic hash-based
//     jitter and a per-evaluation deadline (MCMPART_EVAL_RETRIES,
//     MCMPART_EVAL_BACKOFF_MS, MCMPART_EVAL_DEADLINE_MS).
//   * ResilientCostModel -- wraps a primary CostModel with the retry loop;
//     on retry exhaustion it degrades to an optional fallback model (the
//     analytical cost model in practice) or sanitizes the failure to a
//     plain invalid result so NaNs never reach a reward.
//
// Telemetry counters (see docs/OPERATIONS.md for the troubleshooting map):
//   faults/injected, faults/injected_{timeout,invalid,nan}, faults/retries,
//   faults/recovered, faults/retry_exhausted, faults/degraded_evals.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "costmodel/cost_model.h"

namespace mcm {

// The transient failure modes the injector can produce.
enum class FaultKind {
  kTimeout,          // Evaluation exceeds its deadline.
  kSpuriousInvalid,  // Platform falsely reports the partition invalid.
  kNanCost,          // Measurement returns a non-finite runtime.
};

struct FaultConfig {
  double rate = 0.0;      // Per-attempt fault probability in [0, 1].
  std::uint64_t seed = 0x6d636d2d666c74ULL;  // Hash seed for fault draws.
  bool enable_timeout = true;
  bool enable_spurious_invalid = true;
  bool enable_nan_cost = true;

  bool AnyKindEnabled() const {
    return enable_timeout || enable_spurious_invalid || enable_nan_cost;
  }

  // Reads MCMPART_FAULT_RATE (clamped to [0, 1]), MCMPART_FAULT_KINDS
  // (comma-separated subset of "timeout,invalid,nan"; default all), and
  // MCMPART_FAULT_SEED.
  static FaultConfig FromEnv();
};

// Deterministic fault source.  `Sample` is a pure function of
// (config.seed, key): two processes with the same configuration agree on
// every draw regardless of thread count or call order.  `Next` layers a
// per-key attempt counter on top so that retries of the same evaluation see
// fresh draws (attempt i of key k draws Sample(HashCombine(k, i))).
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  // Pure draw: should attempt `key` fault, and if so, how?  Returns true
  // and sets *kind when a fault fires.
  bool Sample(std::uint64_t key, FaultKind* kind) const;

  // Stateful draw: like Sample, but keyed on (key, attempt#) where the
  // attempt number increments per call with the same key.  Thread-safe.
  bool Next(std::uint64_t key, FaultKind* kind);

  const FaultConfig& config() const { return config_; }

 private:
  const FaultConfig config_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint32_t> attempts_;
};

// The process-global injector configured from the environment, or nullptr
// when MCMPART_FAULT_RATE is 0/unset (the default: zero overhead, no clock
// reads, no locks on the evaluation path).
FaultInjector* GlobalFaultInjector();

// Exponential backoff with deterministic jitter and an optional deadline.
struct RetryPolicy {
  int max_retries = 4;           // Extra attempts after the first.
  double initial_backoff_s = 1e-3;
  double max_backoff_s = 0.25;   // Cap for the exponential schedule.
  double deadline_s = 2.0;       // Per-evaluation wall budget; 0 disables.

  // Reads MCMPART_EVAL_RETRIES (clamped to [0, 100]),
  // MCMPART_EVAL_BACKOFF_MS (clamped to [0, 60000]), and
  // MCMPART_EVAL_DEADLINE_MS (clamped to [0, 3600000]; 0 disables).
  static RetryPolicy FromEnv();

  // Backoff before retry `attempt` (1-based) of evaluation `key`:
  // initial * 2^(attempt-1), capped at max_backoff_s, scaled by a
  // deterministic jitter factor in [0.5, 1.5) hashed from (key, attempt).
  double BackoffSeconds(std::uint64_t key, int attempt) const;
};

// CostModel decorator adding retry-with-backoff and graceful degradation.
//
// Evaluate runs the primary model; on a transient failure (timeout,
// evaluator error, non-finite cost) it backs off and retries up to
// max_retries times within the deadline.  If every attempt fails it falls
// back to the `fallback` model when one is provided (counted in
// faults/degraded_evals), else returns Invalid(kEvaluatorError) -- a NaN
// cost never escapes to callers.
//
// Thread safety: matches the CostModel contract.  Evaluate keeps no state;
// sleeping and counter bumps are the only side effects.  The happy path
// (first attempt succeeds) reads no clock and takes no lock beyond what the
// wrapped models do, so fault-free runs stay on the deterministic fast
// path.
class ResilientCostModel final : public CostModel {
 public:
  // Neither pointer is owned; both must outlive this model.  `fallback`
  // may be null (degradation then sanitizes to an invalid result).
  ResilientCostModel(CostModel* primary, CostModel* fallback,
                     RetryPolicy policy);

  EvalResult Evaluate(const Graph& graph, const Partition& partition) override;
  std::string name() const override { return "resilient(" + primary_->name() + ")"; }

  const RetryPolicy& policy() const { return policy_; }
  CostModel* primary() const { return primary_; }
  CostModel* fallback() const { return fallback_; }

 private:
  CostModel* const primary_;
  CostModel* const fallback_;
  const RetryPolicy policy_;
};

// Stable 64-bit identity of an evaluation request, used as the fault/jitter
// key so injection is a function of what is being evaluated, not of when.
std::uint64_t EvalKey(const Graph& graph, const Partition& partition);

}  // namespace mcm
