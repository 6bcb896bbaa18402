// Request execution: one PartitionRequest in, one PartitionResponse out.
//
// This is the single implementation behind both the offline CLI
// (`mcmpart partition`) and the daemon (`mcmpart serve`), which is what
// makes the serving determinism contract hold *by construction*: a served
// placement is bit-identical to the same request run offline, because both
// paths execute this exact function with the same inputs.
//
// Execution is a deterministic, side-effect-free function of the request
// (plus the optional warm-start weights): every random stream derives from
// `request.seed` exactly as the CLI derives its streams from `--seed`, all
// state (graph context, cost models, environment, policy) is private to the
// call, and telemetry is write-only.  Many requests may therefore execute
// concurrently -- cached or rerun -- without changing a single output bit.
//
// Per-request deadlines (`deadline_ms`) are wired into the two budgeted
// subsystems:
//   * ResilientCostModel -- the retry/backoff deadline is capped at the
//     request deadline, so a faulty evaluator degrades to the fallback
//     model instead of eating the budget of queued requests.
//   * CP solver -- the deadline derives a *propagation budget*
//     (kSolverPropagationsPerMs events per millisecond).  A work budget,
//     unlike a wall-clock solver deadline, keeps the solve bit-reproducible
//     across machines; exhausting it degrades to the greedy heuristic
//     (solver/degraded_solves), never into a failure.
#pragma once

#include <string>

#include "pipeline/pretrain.h"
#include "rl/policy.h"
#include "service/protocol.h"

namespace mcm::service {

// Deterministic deadline->solver-budget conversion (see header comment).
inline constexpr std::int64_t kSolverPropagationsPerMs = 2000;

// The CP-solver propagation budget a request deadline becomes: 0
// (unlimited) without one, else kSolverPropagationsPerMs per millisecond
// with a floor of 10,000.
std::int64_t SolverPropagationBudget(std::int64_t deadline_ms);

// Warm-start weights for zeroshot/finetune requests, loaded once at serve
// time.  Each request copies the parameters into a private policy instance,
// so requests can never observe each other's fine-tuning updates.
struct ServingPolicy {
  RlConfig config;        // Network shape the checkpoint was written with.
  Checkpoint checkpoint;  // Parameter payload.

  // Loads a checkpoint file written by PretrainPipeline::SaveCheckpointFile.
  // Throws std::runtime_error on I/O, format, or shape errors.
  static ServingPolicy FromFile(const RlConfig& config,
                                const std::string& path);
};

// The network shapes the in-repo checkpoint producers use, selectable as
// `--checkpoint-shape` on the CLI: "quick" is RlConfig::Quick() (what
// `mcmpart partition --method rl` trains), "pretrain" is the scaled-down
// shape `mcmpart pretrain` snapshots.  `num_chips` overrides the package
// size in either.
RlConfig CheckpointShapeConfig(const std::string& shape, int num_chips);

// Executes `request` end to end: parse graph, heuristic baseline, then the
// mode's strategy (see RequestMode).  Never throws -- failures come back as
// ok=false responses.  `warm_start` may be null (zeroshot/finetune then
// start from a fresh seed-derived policy, matching the offline CLI without
// --checkpoint).
PartitionResponse ExecutePartitionRequest(const PartitionRequest& request,
                                          const ServingPolicy* warm_start);

}  // namespace mcm::service
