#include "service/handler.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "costmodel/cost_model.h"
#include "hwsim/hardware_sim.h"
#include "rl/env.h"
#include "search/search.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm::service {
namespace {

// The retry/backoff budget for one request: the environment-configured
// policy, with its deadline capped at the request's own deadline.
RetryPolicy RequestRetryPolicy(const PartitionRequest& request) {
  RetryPolicy policy = RetryPolicy::FromEnv();
  if (request.deadline_ms > 0) {
    const double deadline_s =
        static_cast<double>(request.deadline_ms) / 1000.0;
    policy.deadline_s = policy.deadline_s > 0.0
                            ? std::min(policy.deadline_s, deadline_s)
                            : deadline_s;
  }
  return policy;
}

CpSolver::Options RequestSolverOptions(const PartitionRequest& request) {
  CpSolver::Options options;
  options.propagation_budget = SolverPropagationBudget(request.deadline_ms);
  return options;
}

PartitionResponse Execute(const PartitionRequest& request,
                          const ServingPolicy* warm_start) {
  PartitionResponse response;
  response.id = request.id;

  if (request.chips < 1 || request.chips > kMaxChips) {
    return MakeErrorResponse(
        request.id, "chips out of range [1, " + std::to_string(kMaxChips) + "]");
  }
  if (request.budget < 0 || request.budget > 1000000) {
    return MakeErrorResponse(request.id, "budget out of range [0, 1000000]");
  }

  std::istringstream graph_stream(request.graph_text);
  const Graph graph = Graph::Deserialize(graph_stream);

  AnalyticalCostModel analytical{McmConfig{}};
  std::unique_ptr<HardwareSim> hwsim;
  CostModel* model = &analytical;
  CostModel* fallback = nullptr;
  if (request.model == "hwsim") {
    hwsim = std::make_unique<HardwareSim>();
    model = hwsim.get();
    fallback = &analytical;  // Graceful degradation target.
  } else if (request.model != "analytical") {
    return MakeErrorResponse(request.id, "unknown model: " + request.model);
  }

  PartitionEnv::Objective objective;
  if (request.objective == "throughput") {
    objective = PartitionEnv::Objective::kThroughput;
  } else if (request.objective == "latency") {
    objective = PartitionEnv::Objective::kLatency;
  } else {
    return MakeErrorResponse(request.id,
                             "unknown objective: " + request.objective);
  }

  const RetryPolicy retry_policy = RequestRetryPolicy(request);
  GraphContext context(graph, request.chips, RequestSolverOptions(request));
  Rng rng(request.seed);
  const BaselineResult baseline = ComputeHeuristicBaseline(
      graph, *model, context.solver(), rng, fallback, &retry_policy);
  if (!baseline.eval.valid) {
    return MakeErrorResponse(request.id,
                             "heuristic baseline invalid on this model");
  }
  const double anchor = objective == PartitionEnv::Objective::kLatency
                            ? baseline.eval.latency_s
                            : baseline.eval.runtime_s;
  PartitionEnv env(graph, *model, anchor, objective, 0, fallback,
                   &retry_policy);

  if (request.mode == RequestMode::kSolver) {
    // Compiler-pass mode: the solver-repaired greedy heuristic, refined by
    // greedy single-node-move probing when the request carries a budget.
    // Improvements land in the env's incumbent, which the response reads.
    const double base_reward = env.Reward(baseline.partition);
    if (request.budget > 0) {
      Rng probe_rng(request.seed + 3);
      ProbeSingleNodeMoves(
          graph, baseline.partition, base_reward,
          [&env](const Partition& p) { return env.Reward(p); },
          request.budget, probe_rng);
    }
  } else {
    std::unique_ptr<SearchStrategy> search;
    std::unique_ptr<PolicyNetwork> policy;  // Owns the RL policy when used.
    if (request.mode == RequestMode::kSearch) {
      if (request.method == "random") {
        search = std::make_unique<RandomSearch>(Rng(request.seed + 1));
      } else if (request.method == "sa") {
        search = std::make_unique<SimulatedAnnealing>(Rng(request.seed + 1));
      } else if (request.method == "hillclimb") {
        search = std::make_unique<HillClimbSearch>(Rng(request.seed + 1));
      } else {
        return MakeErrorResponse(request.id,
                                 "unknown method: " + request.method);
      }
    } else {
      // Zero-shot / fine-tune.  Warm-start weights apply when their package
      // size matches the request; otherwise the policy starts fresh from
      // the seed-derived initialization, exactly like the offline CLI
      // without --checkpoint.
      const bool warm = warm_start != nullptr &&
                        warm_start->config.num_chips == request.chips;
      RlConfig config = warm ? warm_start->config : RlConfig::Quick();
      config.num_chips = request.chips;
      config.seed = request.seed + 2;
      policy = std::make_unique<PolicyNetwork>(config);
      if (warm) PretrainPipeline::Restore(*policy, warm_start->checkpoint);
      const bool zero_shot = request.mode == RequestMode::kZeroShot;
      search = std::make_unique<RlSearch>(*policy, Rng(request.seed + 1),
                                          zero_shot);
    }
    search->Run(context, env, request.budget);
  }

  const Partition& best =
      env.has_best() ? env.best_partition() : baseline.partition;
  EvalResult best_eval;
  const double improvement = env.Score(best, &best_eval);

  response.ok = true;
  response.assignment = best.assignment;
  response.num_chips = request.chips;
  response.improvement = improvement;
  response.runtime_s = best_eval.runtime_s;
  response.latency_s = best_eval.latency_s;
  response.throughput = best_eval.throughput;
  response.baseline_runtime_s = anchor;
  return response;
}

}  // namespace

std::int64_t SolverPropagationBudget(std::int64_t deadline_ms) {
  if (deadline_ms <= 0) return 0;
  return std::max<std::int64_t>(deadline_ms * kSolverPropagationsPerMs,
                                10000);
}

ServingPolicy ServingPolicy::FromFile(const RlConfig& config,
                                      const std::string& path) {
  ServingPolicy warm;
  warm.config = config;
  warm.checkpoint = PretrainPipeline::LoadCheckpointFile(config, path);
  return warm;
}

RlConfig CheckpointShapeConfig(const std::string& shape, int num_chips) {
  RlConfig config;
  if (shape == "quick") {
    config = RlConfig::Quick();
  } else if (shape == "pretrain") {
    // Must mirror the configuration RunPretrain builds in mcmpart_cli.cc.
    config.gnn_layers = 2;
    config.hidden_dim = 16;
    config.rollouts_per_update = 6;
    config.epochs = 2;
    config.minibatches = 2;
  } else {
    throw std::runtime_error("unknown checkpoint shape: " + shape +
                             " (expected quick or pretrain)");
  }
  config.num_chips = num_chips;
  return config;
}

// MCM_CONTRACT(deterministic): the serving path's replay guarantee -- the
// same request against the same policy yields the same placement.
PartitionResponse ExecutePartitionRequest(const PartitionRequest& request,
                                          const ServingPolicy* warm_start) {
  static telemetry::Counter& executed =
      telemetry::Counter::Get("service/executed");
  MCM_TRACE_SPAN("service/execute");
  try {
    PartitionResponse response = Execute(request, warm_start);
    executed.Add();
    return response;
  } catch (const std::exception& e) {
    executed.Add();
    return MakeErrorResponse(request.id, e.what());
  }
}

}  // namespace mcm::service
