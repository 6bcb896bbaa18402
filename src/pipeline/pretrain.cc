#include "pipeline/pretrain.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/logging.h"
#include "common/stats.h"
#include "pipeline/checkpoint.h"
#include "runtime/thread_pool.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

constexpr double kCheckpointSecondsBounds[] = {0.1, 0.5, 1.0,  5.0,
                                               15.0, 60.0, 300.0};

}  // namespace

std::vector<GraphTask> BuildGraphTasks(const std::vector<Graph>& graphs,
                                       CostModel& model, int num_chips,
                                       std::uint64_t seed,
                                       CostModel* fallback) {
  // Fan-out: context construction (feature extraction + solver setup) and
  // the heuristic baseline are independent per graph.  Each task gets a
  // substream of `seed`; baselines repair through the task's own solver.
  std::vector<GraphTask> built(graphs.size());
  std::vector<char> valid(graphs.size(), 0);
  ParallelFor(0, static_cast<std::int64_t>(graphs.size()),
              [&](std::int64_t gi) {
                const Graph& graph = graphs[static_cast<std::size_t>(gi)];
                GraphTask& task = built[static_cast<std::size_t>(gi)];
                task.graph = &graph;
                task.context = std::make_unique<GraphContext>(graph, num_chips);
                Rng rng(HashCombine(seed, static_cast<std::uint64_t>(gi)));
                BaselineResult baseline = ComputeHeuristicBaseline(
                    graph, model, task.context->solver(), rng, fallback);
                if (!baseline.eval.valid) return;
                task.baseline_runtime_s = baseline.eval.runtime_s;
                task.env = std::make_unique<PartitionEnv>(
                    graph, model, task.baseline_runtime_s,
                    PartitionEnv::Objective::kThroughput, 0, fallback);
                valid[static_cast<std::size_t>(gi)] = 1;
              });
  std::vector<GraphTask> tasks;
  tasks.reserve(graphs.size());
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    if (!valid[gi]) {
      MCM_LOG(kWarning) << "skipping graph " << graphs[gi].name()
                        << ": heuristic baseline invalid";
      continue;
    }
    tasks.push_back(std::move(built[gi]));
  }
  return tasks;
}

PretrainPipeline::PretrainPipeline(PretrainConfig config,
                                   CostModel& reward_model,
                                   CostModel* fallback_model)
    : config_(config),
      reward_model_(&reward_model),
      fallback_model_(fallback_model),
      policy_(config.rl) {}

std::vector<Checkpoint> PretrainPipeline::Train(
    const std::vector<Graph>& train_graphs) {
  MCM_TRACE_SPAN("pipeline/train");
  static telemetry::Counter& checkpoint_count =
      telemetry::Counter::Get("pipeline/checkpoints");
  static telemetry::Histogram& checkpoint_seconds = telemetry::Histogram::Get(
      "pipeline/checkpoint_train_s", kCheckpointSecondsBounds);
  std::vector<GraphTask> tasks = BuildGraphTasks(
      train_graphs, *reward_model_, config_.rl.num_chips,
      HashCombine(config_.seed, 0x7261696eULL), fallback_model_);
  MCM_CHECK(!tasks.empty());

  PpoTrainer trainer(policy_, Rng(HashCombine(config_.seed, 1)));
  std::vector<Checkpoint> checkpoints;
  checkpoints.reserve(static_cast<std::size_t>(config_.num_checkpoints));
  const int samples_per_checkpoint =
      std::max(1, config_.total_samples / config_.num_checkpoints);

  int samples_seen = 0;
  int next_checkpoint_at = samples_per_checkpoint;
  std::size_t task_index = 0;
  std::int64_t iteration = 0;

  if (config_.resume && !config_.checkpoint_dir.empty()) {
    if (auto state = LoadPretrainState(config_, config_.checkpoint_dir)) {
      static telemetry::Counter& resumes =
          telemetry::Counter::Get("pipeline/resumes");
      RestoreParams(policy_.Params(), state->params);
      trainer.optimizer().SetState(state->adam);
      trainer.rng().SetState(state->rng_state);
      iteration = state->iteration;
      samples_seen = static_cast<int>(state->samples_seen);
      next_checkpoint_at = static_cast<int>(state->next_checkpoint_at);
      task_index = static_cast<std::size_t>(state->task_index);
      checkpoints = std::move(state->emitted);
      resumes.Add();
      MCM_LOG(kInfo) << "resumed pretraining at iteration " << iteration
                     << " (" << samples_seen << " samples)";
    }
  }

  // Snapshot of everything the next iteration depends on; saving it and
  // restoring later continues the run bit-identically.
  const auto save_state = [&]() {
    if (config_.checkpoint_dir.empty()) return;
    PretrainState state;
    state.iteration = iteration;
    state.samples_seen = samples_seen;
    state.next_checkpoint_at = next_checkpoint_at;
    state.task_index = static_cast<std::uint64_t>(task_index);
    state.rng_state = trainer.rng().GetState();
    state.params = SnapshotParams(policy_.Params());
    state.adam = trainer.optimizer().GetState();
    state.emitted = checkpoints;
    SavePretrainState(state, config_, config_.checkpoint_dir);
  };

  double checkpoint_start = telemetry::MonotonicSeconds();
  while (samples_seen < config_.total_samples) {
    if (config_.stop_after_iterations > 0 &&
        iteration >= config_.stop_after_iterations) {
      save_state();
      return checkpoints;
    }
    GraphTask& task = tasks[task_index];
    task_index = (task_index + 1) % tasks.size();
    const PpoTrainer::IterationResult result =
        trainer.Iterate(*task.context, *task.env);
    samples_seen += static_cast<int>(result.rewards.size());
    ++iteration;
    if (samples_seen >= next_checkpoint_at &&
        static_cast<int>(checkpoints.size()) < config_.num_checkpoints) {
      Checkpoint checkpoint;
      checkpoint.id = static_cast<int>(checkpoints.size());
      checkpoint.samples_seen = samples_seen;
      checkpoint.params = SnapshotParams(policy_.Params());
      checkpoints.push_back(std::move(checkpoint));
      next_checkpoint_at += samples_per_checkpoint;
      const double now = telemetry::MonotonicSeconds();
      checkpoint_count.Add();
      checkpoint_seconds.Observe(now - checkpoint_start);
      checkpoint_start = now;
    }
    if (config_.checkpoint_every > 0 &&
        iteration % config_.checkpoint_every == 0) {
      save_state();
    }
  }
  // Always keep the final weights as the last checkpoint.
  if (checkpoints.empty() ||
      checkpoints.back().samples_seen < samples_seen) {
    Checkpoint checkpoint;
    checkpoint.id = static_cast<int>(checkpoints.size());
    checkpoint.samples_seen = samples_seen;
    checkpoint.params = SnapshotParams(policy_.Params());
    checkpoints.push_back(std::move(checkpoint));
  }
  save_state();
  return checkpoints;
}

int PretrainPipeline::Validate(std::vector<Checkpoint>& checkpoints,
                               const std::vector<Graph>& validation_graphs) {
  MCM_TRACE_SPAN("pipeline/validate");
  MCM_CHECK(!checkpoints.empty());
  std::vector<GraphTask> tasks = BuildGraphTasks(
      validation_graphs, *reward_model_, config_.rl.num_chips,
      HashCombine(config_.seed, 0x76616cULL), fallback_model_);
  MCM_CHECK(!tasks.empty());

  // The validation worker is a pure fan-out: every (checkpoint, graph) cell
  // is independent -- a fresh probe policy restored from the checkpoint, a
  // deterministic per-checkpoint seed, and a private environment (reward
  // anchoring depends only on the task's immutable baseline).  Cells run in
  // parallel; the per-checkpoint score reduction happens serially in
  // (checkpoint, graph) order so means are bit-identical to the sequential
  // loop for any thread count.
  std::vector<std::size_t> scored;  // Checkpoint indices to validate.
  for (std::size_t k = 0; k < checkpoints.size(); ++k) {
    // Score every validate_every-th checkpoint, and always the last.
    if (k % static_cast<std::size_t>(std::max(1, config_.validate_every)) !=
            0 &&
        k + 1 != checkpoints.size()) {
      continue;
    }
    scored.push_back(k);
  }

  struct Cell {
    std::size_t checkpoint_index;
    std::size_t task_index;
    double zeroshot = 0.0;
    double finetune = 0.0;
  };
  std::vector<Cell> cells;
  cells.reserve(scored.size() * tasks.size());
  for (std::size_t k : scored) {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      cells.push_back(Cell{k, t});
    }
  }

  static telemetry::Counter& cells_validated =
      telemetry::Counter::Get("pipeline/validate_cells");
  ParallelFor(0, static_cast<std::int64_t>(cells.size()),
              [&](std::int64_t i) {
                MCM_TRACE_SPAN("pipeline/validate_cell");
                cells_validated.Add();
                Cell& cell = cells[static_cast<std::size_t>(i)];
                const std::size_t k = cell.checkpoint_index;
                const Checkpoint& checkpoint = checkpoints[k];
                GraphTask& task = tasks[cell.task_index];
                // Zero-shot: sample through the solver, no updates.
                {
                  PolicyNetwork probe(config_.rl);
                  Restore(probe, checkpoint);
                  PpoTrainer probe_trainer(
                      probe, Rng(HashCombine(config_.seed, 100 + k)));
                  PartitionEnv env = *task.env;  // Private incumbent/counters.
                  const auto result = probe_trainer.EvaluateOnly(
                      *task.context, env,
                      config_.validation_zeroshot_samples);
                  cell.zeroshot = result.best_reward;
                }
                // Fine-tune: a short PPO run warm-started from the
                // checkpoint.
                {
                  PolicyNetwork probe(config_.rl);
                  Restore(probe, checkpoint);
                  PpoTrainer probe_trainer(
                      probe, Rng(HashCombine(config_.seed, 200 + k)));
                  PartitionEnv env = *task.env;
                  int samples = 0;
                  double best = 0.0;
                  while (samples < config_.validation_finetune_samples) {
                    const auto result =
                        probe_trainer.Iterate(*task.context, env);
                    samples += static_cast<int>(result.rewards.size());
                    best = std::max(best, result.best_reward);
                  }
                  cell.finetune = best;
                }
              });

  int best_index = 0;
  double best_score = -1.0;
  std::size_t cell_index = 0;
  for (std::size_t k : scored) {
    Checkpoint& checkpoint = checkpoints[k];
    RunningStats zeroshot_scores;
    RunningStats finetune_scores;
    for (std::size_t t = 0; t < tasks.size(); ++t, ++cell_index) {
      zeroshot_scores.Add(cells[cell_index].zeroshot);
      finetune_scores.Add(cells[cell_index].finetune);
    }
    checkpoint.zeroshot_score = zeroshot_scores.Mean();
    checkpoint.finetune_score = finetune_scores.Mean();
    checkpoint.validated = true;
    if (checkpoint.finetune_score > best_score) {
      best_score = checkpoint.finetune_score;
      best_index = static_cast<int>(k);
    }
  }
  return best_index;
}

void PretrainPipeline::Restore(PolicyNetwork& policy,
                               const Checkpoint& checkpoint) {
  RestoreParams(policy.Params(), checkpoint.params);
}

void PretrainPipeline::SaveCheckpointFile(const Checkpoint& checkpoint,
                                          const RlConfig& config,
                                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("SaveCheckpointFile: cannot open " + path);
  }
  out << "mcm-policy-checkpoint-v1 " << checkpoint.id << " "
      << checkpoint.samples_seen << "\n";
  // Route the payload through a policy instance so parameter names/shapes
  // are recorded in the standard SaveParams format.
  PolicyNetwork staging(config);
  RestoreParams(staging.Params(), checkpoint.params);
  SaveParams(staging.Params(), out);
  if (!out) {
    throw std::runtime_error("SaveCheckpointFile: write failed for " + path);
  }
}

Checkpoint PretrainPipeline::LoadCheckpointFile(const RlConfig& config,
                                                const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("LoadCheckpointFile: cannot open " + path);
  }
  std::string magic;
  Checkpoint checkpoint;
  in >> magic >> checkpoint.id >> checkpoint.samples_seen;
  if (magic != "mcm-policy-checkpoint-v1") {
    throw std::runtime_error("LoadCheckpointFile: bad header in " + path);
  }
  PolicyNetwork staging(config);
  LoadParams(staging.Params(), in);
  checkpoint.params = SnapshotParams(staging.Params());
  return checkpoint;
}

void PretrainPipeline::WarmStartFromFile(PolicyNetwork& policy,
                                         const std::string& path) {
  const Checkpoint checkpoint = LoadCheckpointFile(policy.config(), path);
  Restore(policy, checkpoint);
}

}  // namespace mcm
