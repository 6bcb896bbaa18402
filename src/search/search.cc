#include "search/search.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "runtime/thread_pool.h"
#include "solver/modes.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm {

double SearchTrace::BestWithin(std::size_t samples) const {
  double best = 0.0;
  const std::size_t limit = std::min(samples, rewards.size());
  for (std::size_t i = 0; i < limit; ++i) best = std::max(best, rewards[i]);
  return best;
}

std::vector<double> SearchTrace::BestSoFar() const {
  std::vector<double> curve;
  curve.reserve(rewards.size());
  double best = 0.0;
  for (double r : rewards) {
    best = std::max(best, r);
    curve.push_back(best);
  }
  return curve;
}

std::optional<std::size_t> SearchTrace::SamplesToReach(
    double threshold) const {
  double best = 0.0;
  for (std::size_t i = 0; i < rewards.size(); ++i) {
    best = std::max(best, rewards[i]);
    if (best >= threshold) return i + 1;
  }
  return std::nullopt;
}

SearchTrace RandomSearch::Run(GraphContext& context, PartitionEnv& env,
                              int budget) {
  MCM_TRACE_SPAN("search/random");
  static telemetry::Counter& samples =
      telemetry::Counter::Get("search/random_samples");
  samples.Add(budget);
  SearchTrace trace;
  trace.strategy = name();
  const ProbMatrix uniform = ProbMatrix::Uniform(
      context.num_nodes(), context.solver().num_chips());
  // Candidates are independent draws: batch-solve and batch-evaluate them in
  // parallel (per-sample RNG substream + private solver per task, built with
  // the context solver's options), then commit to the environment serially
  // in sample order so the incumbent and the trace are bit-identical for any
  // thread count.
  const std::uint64_t base_seed = rng_.Next();
  std::vector<Partition> partitions(static_cast<std::size_t>(budget));
  std::vector<char> success(static_cast<std::size_t>(budget), 0);
  std::vector<EvalResult> evals(static_cast<std::size_t>(budget));
  std::vector<double> scores(static_cast<std::size_t>(budget), 0.0);
  ParallelFor(0, budget, [&](std::int64_t k) {
    Rng task_rng(HashCombine(base_seed, static_cast<std::uint64_t>(k)));
    CpSolver solver(context.graph(), context.solver().num_chips(),
                    context.solver().options());
    SolveResult solved =
        SolveSampleWithRestarts(solver, context.graph(), uniform, task_rng);
    if (!solved.success) return;
    scores[static_cast<std::size_t>(k)] = env.Score(
        solved.partition, &evals[static_cast<std::size_t>(k)]);
    partitions[static_cast<std::size_t>(k)] = std::move(solved.partition);
    success[static_cast<std::size_t>(k)] = 1;
  });
  trace.rewards.reserve(static_cast<std::size_t>(budget));
  for (int k = 0; k < budget; ++k) {
    if (success[static_cast<std::size_t>(k)]) {
      env.CommitScore(partitions[static_cast<std::size_t>(k)],
                      evals[static_cast<std::size_t>(k)],
                      scores[static_cast<std::size_t>(k)]);
      trace.rewards.push_back(scores[static_cast<std::size_t>(k)]);
    } else {
      trace.rewards.push_back(0.0);
    }
  }
  return trace;
}

namespace {

// Draws a random categorical distribution; smaller `concentration` gives
// sharper rows (Dirichlet(concentration) via normalized Gamma would be the
// textbook draw; an exponential-power approximation suffices here).
void RandomizeRow(std::span<double> row, double concentration, Rng& rng) {
  double total = 0.0;
  for (double& w : row) {
    const double u = std::max(rng.UniformDouble(), 1e-12);
    w = std::pow(-std::log(u), 1.0 / std::max(concentration, 1e-3));
    total += w;
  }
  for (double& w : row) w /= total;
}

}  // namespace

SearchTrace SimulatedAnnealing::Run(GraphContext& context, PartitionEnv& env,
                                    int budget) {
  MCM_TRACE_SPAN("search/sa");
  static telemetry::Counter& proposals =
      telemetry::Counter::Get("search/sa_proposals");
  proposals.Add(budget);
  SearchTrace trace;
  trace.strategy = name();
  const int n = context.num_nodes();
  const int c = context.solver().num_chips();

  ProbMatrix current = ProbMatrix::Uniform(n, c);
  double current_reward = 0.0;
  {
    const SolveResult solved = SolveSampleWithRestarts(
        context.solver(), context.graph(), current, rng_);
    current_reward = solved.success ? env.Reward(solved.partition) : 0.0;
    trace.rewards.push_back(current_reward);
  }

  const int perturb_nodes = std::max(
      1, static_cast<int>(options_.perturb_fraction * n));
  for (int k = 1; k < budget; ++k) {
    // Geometric temperature schedule.
    const double progress = static_cast<double>(k) / std::max(budget - 1, 1);
    const double temperature =
        options_.initial_temperature *
        std::pow(options_.final_temperature / options_.initial_temperature,
                 progress);

    ProbMatrix proposal = current;
    for (int j = 0; j < perturb_nodes; ++j) {
      const int node = static_cast<int>(rng_.UniformInt(
          static_cast<std::uint64_t>(n)));
      RandomizeRow(proposal.row(node), options_.concentration, rng_);
    }
    const SolveResult solved = SolveSampleWithRestarts(
        context.solver(), context.graph(), proposal, rng_);
    const double reward =
        solved.success ? env.Reward(solved.partition) : 0.0;
    trace.rewards.push_back(reward);

    const double delta = reward - current_reward;
    if (delta >= 0.0 ||
        rng_.UniformDouble() < std::exp(delta / std::max(temperature, 1e-9))) {
      current = std::move(proposal);
      current_reward = reward;
    }
  }
  return trace;
}

SearchTrace HillClimbSearch::Run(GraphContext& context, PartitionEnv& env,
                                 int budget) {
  MCM_TRACE_SPAN("search/hillclimb");
  static telemetry::Counter& proposals =
      telemetry::Counter::Get("search/hillclimb_proposals");
  proposals.Add(budget);
  SearchTrace trace;
  trace.strategy = name();
  const int n = context.num_nodes();
  const int c = context.solver().num_chips();

  // Seed the incumbent from the SAMPLE-mode solver under a uniform
  // distribution, like RandomSearch's draws.
  const ProbMatrix uniform = ProbMatrix::Uniform(n, c);
  const SolveResult solved = SolveSampleWithRestarts(
      context.solver(), context.graph(), uniform, rng_);
  MCM_CHECK(solved.success) << "solver could not seed a valid partition";
  double current_reward = env.Reward(solved.partition);
  trace.rewards.push_back(current_reward);
  if (c < 2 || n < 1) {
    // No alternative chip to move a node to: the incumbent is the search.
    for (int k = 1; k < budget; ++k) trace.rewards.push_back(current_reward);
    return trace;
  }

  Partition current = solved.partition;
  for (int k = 1; k < budget; ++k) {
    // Geometric temperature schedule, as in SimulatedAnnealing.
    const double progress = static_cast<double>(k) / std::max(budget - 1, 1);
    const double temperature =
        options_.initial_temperature *
        std::pow(options_.final_temperature / options_.initial_temperature,
                 progress);

    const int node = static_cast<int>(rng_.UniformInt(
        static_cast<std::uint64_t>(n)));
    const int from = current.chip(node);
    int chip = static_cast<int>(rng_.UniformInt(
        static_cast<std::uint64_t>(c - 1)));
    if (chip >= from) ++chip;
    current.assignment[static_cast<std::size_t>(node)] = chip;
    if (!IsStaticallyValid(context.graph(), current)) {
      current.assignment[static_cast<std::size_t>(node)] = from;
      trace.rewards.push_back(0.0);
      continue;
    }
    const double reward = env.Reward(current);
    trace.rewards.push_back(reward);

    const double delta = reward - current_reward;
    if (delta >= 0.0 ||
        rng_.UniformDouble() < std::exp(delta / std::max(temperature, 1e-9))) {
      current_reward = reward;
    } else {
      current.assignment[static_cast<std::size_t>(node)] = from;
    }
  }
  return trace;
}

SearchTrace RlSearch::Run(GraphContext& context, PartitionEnv& env,
                          int budget) {
  MCM_TRACE_SPAN("search/rl");
  SearchTrace trace;
  trace.strategy = name();
  const int per_update = trainer_.policy().config().rollouts_per_update;
  while (static_cast<int>(trace.rewards.size()) < budget) {
    const int remaining = budget - static_cast<int>(trace.rewards.size());
    PpoTrainer::IterationResult result;
    if (zero_shot_ || remaining < per_update) {
      result = trainer_.EvaluateOnly(context, env,
                                     std::min(per_update, remaining));
    } else {
      result = trainer_.Iterate(context, env);
    }
    trace.rewards.insert(trace.rewards.end(), result.rewards.begin(),
                         result.rewards.end());
  }
  if (static_cast<int>(trace.rewards.size()) > budget) {
    trace.rewards.resize(static_cast<std::size_t>(budget));
  }
  return trace;
}

}  // namespace mcm
