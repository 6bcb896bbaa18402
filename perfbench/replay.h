// Traced replays of the two library calls that hide several layers:
// PpoTrainer::Iterate / EvaluateOnly (and RlSearch::Run on top of them).
// Each replay makes the same public calls in the same order with the same
// random streams as the library code, so it reproduces rewards, final
// parameters and placements bit for bit, with a span around every call.
#pragma once

#include <vector>

#include "rl/env.h"
#include "rl/ppo.h"
#include "search/search.h"

namespace perfbench {

// What the replay saw besides the iteration result: every placement it
// scored (for output checks) in collection order.
struct ReplayLog {
  std::vector<mcm::Partition> placements;
  std::vector<double> rewards;  // Reward of each placement.
};

// Replays trainer.Iterate(context, env).
mcm::PpoTrainer::IterationResult ReplayIterate(mcm::PpoTrainer& trainer,
                                               mcm::GraphContext& context,
                                               mcm::PartitionEnv& env,
                                               ReplayLog* log);

// Replays trainer.EvaluateOnly(context, env, num_samples).
mcm::PpoTrainer::IterationResult ReplayEvaluateOnly(
    mcm::PpoTrainer& trainer, mcm::GraphContext& context,
    mcm::PartitionEnv& env, int num_samples, ReplayLog* log);

// Replays RlSearch(trainer's policy, rng, zero_shot).Run(context, env,
// budget), given a trainer built from the same policy and rng.
mcm::SearchTrace ReplayRlSearch(mcm::PpoTrainer& trainer,
                                mcm::GraphContext& context,
                                mcm::PartitionEnv& env, int budget,
                                bool zero_shot, ReplayLog* log);

}  // namespace perfbench
