// mcmpart command-line tool: generate model graphs, inspect them, partition
// them onto an MCM package from the shell, and serve partition requests as
// a daemon.
//
// Usage:
//   mcmpart --version                         print the version and exit
//   mcmpart generate <family> <out.graph>     families: mlp cnn resnet
//                                             inception rnn lstm seq2seq bert
//   mcmpart info <in.graph>                   node/edge/resource summary
//   mcmpart dot <in.graph> <out.dot>          Graphviz export
//   mcmpart partition <in.graph> [options]    search for a partition
//     --chips N        chiplets in the package            (default 36)
//     --budget B       evaluation budget                  (default 200)
//     --method M       random | sa | hillclimb | rl | zeroshot | solver
//                      (default random)
//     --model M        analytical | hwsim                 (default analytical)
//     --objective O    throughput | latency               (default throughput)
//     --seed S         RNG seed                           (default 1)
//     --deadline-ms D  soft deadline: caps the evaluation retry budget and
//                      derives a deterministic CP-solver work budget
//                      (default 0 = none); solves that exhaust it fall
//                      back to a heuristic placement, with a warning
//     --checkpoint F   warm-start rl/zeroshot from a pretrained checkpoint
//     --checkpoint-shape quick|pretrain       network shape F was written
//                      with (default quick; `mcmpart pretrain` writes
//                      pretrain-shaped checkpoints)
//     --threads N      worker threads (default: MCMPART_THREADS env,
//                      else hardware concurrency); results are identical
//                      for any N
//     --out FILE       write "node chip" lines of the best partition
//     --trace-out FILE    write Chrome trace-event JSON (spans)
//     --metrics-out FILE  write a metrics/run-report JSON
//   mcmpart serve [options]                   partition-service daemon
//     --socket PATH    Unix domain socket to listen on    (required)
//     --queue-depth N  admission queue depth (default:
//                      MCMPART_SERVICE_QUEUE_DEPTH env, else 128)
//     --cache N        placement-cache entries (default:
//                      MCMPART_SERVICE_CACHE env, else 256; 0 disables)
//     --executors N    concurrent request executors (default: worker
//                      threads + 1)
//     --checkpoint F / --checkpoint-shape S / --chips N
//                      pre-trained policy served to zeroshot/finetune
//                      requests (--chips must match the checkpoint)
//     --threads N      worker threads, as for partition
//     --metrics-out FILE  write a RunReport after the graceful drain
//     SIGTERM/SIGINT drain gracefully: finish in-flight work, flush, exit 0.
//   mcmpart request <in.graph> [options]      one request against a daemon
//     --socket PATH    daemon socket                      (required)
//     --id ID          correlation id                     (default "cli")
//     --method/--model/--objective/--chips/--budget/--seed/--deadline-ms
//                      as for partition
//     --out FILE       write "node chip" lines of the returned placement
//   mcmpart pretrain [options]                small-scale pretraining run
//     --graphs N       training graphs from the corpus   (default 6)
//     --val-graphs N   validation graphs                 (default 2)
//     --samples N      total pretraining samples         (default 240)
//     --checkpoints N  evenly spaced weight snapshots    (default 4)
//     --chips N        chiplets in the package           (default 8)
//     --model M        analytical | hwsim (hwsim degrades to the
//                      analytical model on permanent evaluation failure)
//     --seed S / --threads N   as for partition
//     --checkpoint-dir DIR  save resumable state into DIR
//     --checkpoint-every K  save state every K iterations (default 1
//                      when a checkpoint dir is set)
//     --resume         restore DIR's state file before training
//     --stop-after N   stop after N iterations (deterministic
//                      interruption; used by the resume walkthrough)
//     --save-best F    after --validate, save the best checkpoint to F
//     --validate       score checkpoints on the validation graphs
//     --metrics-out FILE  write a metrics/run-report JSON
//   All options accept both "--flag value" and "--flag=value".
//   MCMPART_TRACE=<file> enables tracing for any command.
//
// Exit codes: 0 success, 1 runtime error, 2 usage error (usage goes to
// stderr in both usage cases).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "graph/generators.h"
#include "hwsim/hardware_sim.h"
#include "pipeline/pretrain.h"
#include "rl/env.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "service/handler.h"
#include "service/server.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

namespace {

using namespace mcm;

constexpr const char* kVersion = "0.7.0";

// Bad invocations (unknown command/option, missing value, wrong arity)
// throw UsageError: main prints the message plus the usage text to stderr
// and exits 2.  Runtime failures stay std::runtime_error and exit 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

int Usage() {
  std::fprintf(stderr,
               "usage: mcmpart --version\n"
               "       mcmpart generate <family> <out.graph>\n"
               "       mcmpart info <in.graph>\n"
               "       mcmpart dot <in.graph> <out.dot>\n"
               "       mcmpart partition <in.graph> [--chips N] [--budget B]"
               " [--method random|sa|hillclimb|rl|zeroshot|solver]"
               " [--model analytical|hwsim]"
               " [--objective throughput|latency] [--seed S] [--deadline-ms D]"
               " [--checkpoint F] [--checkpoint-shape quick|pretrain]"
               " [--threads N] [--out FILE]\n"
               "       mcmpart serve --socket PATH [--queue-depth N]"
               " [--cache N] [--executors N] [--checkpoint F]"
               " [--checkpoint-shape quick|pretrain] [--chips N] [--threads N]"
               " [--metrics-out FILE]\n"
               "       mcmpart request <in.graph> --socket PATH [--id ID]"
               " [--method M] [--model M] [--objective O] [--chips N]"
               " [--budget B] [--seed S] [--deadline-ms D] [--out FILE]\n"
               "       mcmpart pretrain [--graphs N] [--val-graphs N]"
               " [--samples N] [--checkpoints N] [--chips N]"
               " [--model analytical|hwsim] [--seed S] [--threads N]"
               " [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]"
               " [--stop-after N] [--validate] [--save-best F]"
               " [--metrics-out FILE]\n");
  return 2;
}

Graph GenerateFamily(const std::string& family) {
  if (family == "mlp") return MakeMlp("mlp", 256, {512, 512, 256}, 100);
  if (family == "cnn") return MakeCnn("cnn", CnnConfig{});
  if (family == "resnet") return MakeResNet("resnet", ResNetConfig{});
  if (family == "inception") return MakeInception("inception", InceptionConfig{});
  if (family == "rnn") return MakeRnn("rnn", 24, 128, 256, 100);
  if (family == "lstm") return MakeLstm("lstm", 12, 128, 256, 100);
  if (family == "seq2seq") return MakeSeq2Seq("seq2seq", 8, 8, 128, 256, 1000);
  if (family == "bert") return MakeBert();
  throw std::runtime_error("unknown family: " + family);
}

Graph LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return Graph::Deserialize(in);
}

// Flattens argv, splitting "--flag=value" into "--flag", "value" so both
// spellings parse identically.
std::vector<std::string> SplitFlagArgs(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  return args;
}

// CLI --method spelling -> service request mode.  "rl" is fine-tuning from
// scratch (or from --checkpoint), matching the historical CLI behavior.
service::RequestMode ModeForMethod(const std::string& method) {
  if (method == "random" || method == "sa" || method == "hillclimb") {
    return service::RequestMode::kSearch;
  }
  if (method == "rl") return service::RequestMode::kFinetune;
  if (method == "zeroshot") return service::RequestMode::kZeroShot;
  if (method == "solver") return service::RequestMode::kSolver;
  throw UsageError("unknown method: " + method);
}

std::string SerializeGraph(const Graph& graph) {
  std::ostringstream os;
  graph.Serialize(os);
  return os.str();
}

void PrintResponse(const service::PartitionResponse& response,
                   const Graph& graph, const std::string& out_path) {
  if (!response.ok) {
    throw std::runtime_error("request failed: " + response.error);
  }
  std::printf("baseline: %.4f ms\n", response.baseline_runtime_s * 1e3);
  std::printf("best improvement %.4fx (runtime %.4f ms, latency %.4f ms)\n",
              response.improvement, response.runtime_s * 1e3,
              response.latency_s * 1e3);
  if (response.cached) std::printf("served from placement cache\n");
  Partition best;
  best.assignment = response.assignment;
  best.num_chips = response.num_chips;
  std::printf("%s", DescribePartition(graph, best).c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot open " + out_path);
    SavePartition(best, out);
    std::printf("wrote best partition to %s\n", out_path.c_str());
  }
}

// Loads the warm-start policy for --checkpoint, or returns null when no
// checkpoint was requested.
std::unique_ptr<service::ServingPolicy> LoadServingPolicy(
    const std::string& path, const std::string& shape, int chips) {
  if (path.empty()) return nullptr;
  const RlConfig config = service::CheckpointShapeConfig(shape, chips);
  return std::make_unique<service::ServingPolicy>(
      service::ServingPolicy::FromFile(config, path));
}

int RunPartition(const Graph& graph, int argc, char** argv) {
  service::PartitionRequest request;
  request.id = "cli";
  request.chips = 36;
  request.budget = 200;
  std::string method = "random";
  std::string checkpoint_path;
  std::string checkpoint_shape = "quick";
  std::string out_path;
  std::string trace_path;
  std::string metrics_path;
  const std::vector<std::string> args = SplitFlagArgs(argc, argv);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw UsageError("missing value for " + arg);
      }
      return args[++i];
    };
    if (arg == "--chips") request.chips = std::stoi(next());
    else if (arg == "--budget") request.budget = std::stoi(next());
    else if (arg == "--method") method = next();
    else if (arg == "--model") request.model = next();
    else if (arg == "--objective") request.objective = next();
    else if (arg == "--seed") request.seed = std::stoull(next());
    else if (arg == "--deadline-ms") request.deadline_ms = std::stoll(next());
    else if (arg == "--checkpoint") checkpoint_path = next();
    else if (arg == "--checkpoint-shape") checkpoint_shape = next();
    else if (arg == "--threads") SetDefaultThreadCount(std::stoi(next()));
    else if (arg == "--out") out_path = next();
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--metrics-out") metrics_path = next();
    else throw UsageError("unknown option: " + arg);
  }
  request.mode = ModeForMethod(method);
  request.method =
      (method == "sa" || method == "hillclimb") ? method : "random";
  request.graph_text = SerializeGraph(graph);
  if (!trace_path.empty()) telemetry::SetTracePath(trace_path);
  telemetry::RunReport report("mcmpart_partition");
  report.SetString("method", method);
  report.SetString("model", request.model);
  report.SetString("objective", request.objective);
  report.SetValue("budget", request.budget);
  report.SetValue("chips", request.chips);

  const std::unique_ptr<service::ServingPolicy> warm =
      LoadServingPolicy(checkpoint_path, checkpoint_shape, request.chips);

  telemetry::Counter& degraded =
      telemetry::Counter::Get("solver/degraded_solves");
  const std::int64_t degraded_before = degraded.Value();
  // The exact same function the daemon executes: a served placement for
  // this request is bit-identical to this offline run (handler.h).
  std::unique_ptr<telemetry::PhaseTimer> timer =
      std::make_unique<telemetry::PhaseTimer>(report, "execute");
  const service::PartitionResponse response =
      service::ExecutePartitionRequest(request, warm.get());
  timer.reset();
  const std::int64_t degraded_solves = degraded.Value() - degraded_before;

  PrintResponse(response, graph, out_path);
  report.SetValue("best_improvement", response.improvement);
  report.SetValue("degraded_solves", static_cast<double>(degraded_solves));
  // A degraded solve returns the greedy or single-chip fallback, so the
  // placement above may be far from what the method finds unhurried.
  if (degraded_solves > 0) {
    std::fprintf(stderr,
                 "warning: %lld solve(s) ran out of budget and fell back "
                 "to a heuristic placement",
                 static_cast<long long>(degraded_solves));
    if (request.deadline_ms > 0) {
      std::fprintf(
          stderr,
          "; --deadline-ms %lld allows %lld propagations per solve, try a "
          "larger --deadline-ms",
          static_cast<long long>(request.deadline_ms),
          static_cast<long long>(
              service::SolverPropagationBudget(request.deadline_ms)));
    }
    std::fprintf(stderr, "\n");
  }
  if (!metrics_path.empty() && report.Write(metrics_path)) {
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  // The trace itself is flushed by main() via WriteTraceIfConfigured().
  if (!trace_path.empty()) {
    std::printf("writing trace to %s\n", trace_path.c_str());
  }
  return 0;
}

int RunServe(int argc, char** argv) {
  service::ServerConfig config;
  int chips = 8;
  std::string checkpoint_path;
  std::string checkpoint_shape = "pretrain";
  const std::vector<std::string> args = SplitFlagArgs(argc, argv);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw UsageError("missing value for " + arg);
      }
      return args[++i];
    };
    if (arg == "--socket") config.socket_path = next();
    else if (arg == "--queue-depth") config.queue_depth = std::stoi(next());
    else if (arg == "--cache") config.cache_capacity = std::stoi(next());
    else if (arg == "--executors") config.executors = std::stoi(next());
    else if (arg == "--chips") chips = std::stoi(next());
    else if (arg == "--checkpoint") checkpoint_path = next();
    else if (arg == "--checkpoint-shape") checkpoint_shape = next();
    else if (arg == "--threads") SetDefaultThreadCount(std::stoi(next()));
    else if (arg == "--metrics-out") config.report_path = next();
    else throw UsageError("unknown option: " + arg);
  }
  if (config.socket_path.empty()) {
    throw UsageError("serve requires --socket PATH");
  }
  const std::unique_ptr<service::ServingPolicy> warm =
      LoadServingPolicy(checkpoint_path, checkpoint_shape, chips);

  service::Server server(config, warm.get());
  server.Start();
  server.InstallSignalHandlers();
  server.Run();
  return 0;
}

int RunRequest(const Graph& graph, int argc, char** argv) {
  service::PartitionRequest request;
  request.id = "cli";
  request.chips = 36;
  request.budget = 200;
  std::string method = "random";
  std::string socket_path;
  std::string out_path;
  const std::vector<std::string> args = SplitFlagArgs(argc, argv);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw UsageError("missing value for " + arg);
      }
      return args[++i];
    };
    if (arg == "--socket") socket_path = next();
    else if (arg == "--id") request.id = next();
    else if (arg == "--chips") request.chips = std::stoi(next());
    else if (arg == "--budget") request.budget = std::stoi(next());
    else if (arg == "--method") method = next();
    else if (arg == "--model") request.model = next();
    else if (arg == "--objective") request.objective = next();
    else if (arg == "--seed") request.seed = std::stoull(next());
    else if (arg == "--deadline-ms") request.deadline_ms = std::stoll(next());
    else if (arg == "--out") out_path = next();
    else throw UsageError("unknown option: " + arg);
  }
  if (socket_path.empty()) {
    throw UsageError("request requires --socket PATH");
  }
  request.mode = ModeForMethod(method);
  request.method =
      (method == "sa" || method == "hillclimb") ? method : "random";
  request.graph_text = SerializeGraph(graph);

  service::ServiceClient client(socket_path);
  const service::PartitionResponse response = client.Call(request);
  if (!response.ok && response.retry_after_ms > 0) {
    throw std::runtime_error("rejected (retry after " +
                             std::to_string(response.retry_after_ms) +
                             " ms): " + response.error);
  }
  PrintResponse(response, graph, out_path);
  return 0;
}

int RunPretrain(int argc, char** argv) {
  int train_graphs = 6;
  int val_graphs = 2;
  int samples = 240;
  int checkpoints = 4;
  int chips = 8;
  std::string model_name = "analytical";
  std::uint64_t seed = 1;
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  bool resume = false;
  int stop_after = 0;
  bool validate = false;
  std::string save_best_path;
  std::string trace_path;
  std::string metrics_path;
  const std::vector<std::string> args = SplitFlagArgs(argc, argv);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw UsageError("missing value for " + arg);
      }
      return args[++i];
    };
    if (arg == "--graphs") train_graphs = std::stoi(next());
    else if (arg == "--val-graphs") val_graphs = std::stoi(next());
    else if (arg == "--samples") samples = std::stoi(next());
    else if (arg == "--checkpoints") checkpoints = std::stoi(next());
    else if (arg == "--chips") chips = std::stoi(next());
    else if (arg == "--model") model_name = next();
    else if (arg == "--seed") seed = std::stoull(next());
    else if (arg == "--threads") SetDefaultThreadCount(std::stoi(next()));
    else if (arg == "--checkpoint-dir") checkpoint_dir = next();
    else if (arg == "--checkpoint-every") checkpoint_every = std::stoi(next());
    else if (arg == "--resume") resume = true;
    else if (arg == "--stop-after") stop_after = std::stoi(next());
    else if (arg == "--validate") validate = true;
    else if (arg == "--save-best") save_best_path = next();
    else if (arg == "--trace-out") trace_path = next();
    else if (arg == "--metrics-out") metrics_path = next();
    else throw UsageError("unknown option: " + arg);
  }
  if (!trace_path.empty()) telemetry::SetTracePath(trace_path);
  telemetry::RunReport report("mcmpart_pretrain");
  report.SetString("model", model_name);
  report.SetValue("samples", samples);
  report.SetValue("chips", chips);

  // A small-but-real configuration: the paper's shapes scaled down so smoke
  // runs (CI's fault-smoke job, the resume walkthrough) finish in seconds.
  // This is the "pretrain" shape of service::CheckpointShapeConfig; keep
  // the two in sync so serve/partition can reload saved checkpoints.
  PretrainConfig config;
  config.rl = service::CheckpointShapeConfig("pretrain", chips);
  config.rl.seed = seed + 1;
  config.total_samples = samples;
  config.num_checkpoints = checkpoints;
  config.seed = seed;
  config.checkpoint_dir = checkpoint_dir;
  config.checkpoint_every =
      checkpoint_every > 0 ? checkpoint_every
                           : (checkpoint_dir.empty() ? 0 : 1);
  config.resume = resume;
  config.stop_after_iterations = stop_after;

  // Small corpus graphs keep context construction and rollouts cheap.
  std::vector<Graph> corpus = MakeCorpus();
  std::vector<Graph> train, val;
  for (Graph& graph : corpus) {
    if (graph.NumNodes() >= 80) continue;
    if (static_cast<int>(train.size()) < train_graphs) {
      train.push_back(std::move(graph));
    } else if (static_cast<int>(val.size()) < val_graphs) {
      val.push_back(std::move(graph));
    } else {
      break;
    }
  }
  if (static_cast<int>(train.size()) < train_graphs || train.empty()) {
    throw std::runtime_error("not enough small corpus graphs for --graphs");
  }

  AnalyticalCostModel analytical{McmConfig{}};
  std::unique_ptr<HardwareSim> hwsim;
  CostModel* primary = &analytical;
  CostModel* fallback = nullptr;
  if (model_name == "hwsim") {
    hwsim = std::make_unique<HardwareSim>();
    primary = hwsim.get();
    fallback = &analytical;  // Graceful degradation target.
  } else if (model_name != "analytical") {
    throw std::runtime_error("unknown model: " + model_name);
  }

  PretrainPipeline pipeline(config, *primary, fallback);
  std::unique_ptr<telemetry::PhaseTimer> train_timer =
      std::make_unique<telemetry::PhaseTimer>(report, "train");
  std::vector<Checkpoint> emitted = pipeline.Train(train);
  train_timer.reset();
  const int seen = emitted.empty() ? 0 : emitted.back().samples_seen;
  std::printf("pretrain (%s): %zu checkpoints, %d samples\n",
              model_name.c_str(), emitted.size(), seen);
  report.SetValue("checkpoints_emitted",
                  static_cast<double>(emitted.size()));
  report.SetValue("samples_seen", seen);

  if (validate && !emitted.empty() && !val.empty()) {
    std::unique_ptr<telemetry::PhaseTimer> validate_timer =
        std::make_unique<telemetry::PhaseTimer>(report, "validate");
    const int best = pipeline.Validate(emitted, val);
    validate_timer.reset();
    const Checkpoint& chosen = emitted[static_cast<std::size_t>(best)];
    std::printf(
        "best checkpoint: id %d (zero-shot %.4fx, fine-tune %.4fx)\n",
        chosen.id, chosen.zeroshot_score, chosen.finetune_score);
    report.SetValue("best_checkpoint", chosen.id);
    report.SetValue("best_finetune_score", chosen.finetune_score);
    if (!save_best_path.empty()) {
      PretrainPipeline::SaveCheckpointFile(chosen, config.rl, save_best_path);
      std::printf("wrote best checkpoint to %s\n", save_best_path.c_str());
    }
  } else if (!save_best_path.empty()) {
    throw UsageError("--save-best requires --validate (and a non-empty run)");
  }
  if (!metrics_path.empty() && report.Write(metrics_path)) {
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("writing trace to %s\n", trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("mcmpart %s\n", kVersion);
    return 0;
  }
  mcm::telemetry::InitTelemetryFromEnv();
  mcm::telemetry::RegisterStandardMetrics();
  try {
    if (command == "generate" && argc == 4) {
      const Graph graph = GenerateFamily(argv[2]);
      std::ofstream out(argv[3]);
      if (!out) throw std::runtime_error(std::string("cannot open ") + argv[3]);
      graph.Serialize(out);
      std::printf("wrote %s: %d nodes, %d edges\n", argv[3], graph.NumNodes(),
                  graph.NumEdges());
      return 0;
    }
    if (command == "info" && argc == 3) {
      const Graph graph = LoadGraph(argv[2]);
      std::printf("name:        %s\n", graph.name().c_str());
      std::printf("nodes/edges: %d / %d\n", graph.NumNodes(), graph.NumEdges());
      std::printf("compute:     %.3f GFLOPs\n", graph.TotalFlops() / 1e9);
      std::printf("weights:     %.1f MB\n", graph.TotalParamBytes() / 1e6);
      std::printf("activations: %.1f MB total\n",
                  graph.TotalOutputBytes() / 1e6);
      std::printf("depth:       %d\n", graph.CriticalPathLength());
      return 0;
    }
    if (command == "dot" && argc == 4) {
      const Graph graph = LoadGraph(argv[2]);
      std::ofstream out(argv[3]);
      if (!out) throw std::runtime_error(std::string("cannot open ") + argv[3]);
      graph.WriteDot(out);
      std::printf("wrote %s\n", argv[3]);
      return 0;
    }
    if (command == "partition" && argc >= 3) {
      const Graph graph = LoadGraph(argv[2]);
      const int result = RunPartition(graph, argc - 3, argv + 3);
      // Flushes the MCMPART_TRACE-configured path (no-op when unset; the
      // --trace-out path was already written inside RunPartition).
      mcm::telemetry::WriteTraceIfConfigured();
      return result;
    }
    if (command == "serve") {
      const int result = RunServe(argc - 2, argv + 2);
      mcm::telemetry::WriteTraceIfConfigured();
      return result;
    }
    if (command == "request" && argc >= 3) {
      const Graph graph = LoadGraph(argv[2]);
      return RunRequest(graph, argc - 3, argv + 3);
    }
    if (command == "pretrain") {
      const int result = RunPretrain(argc - 2, argv + 2);
      mcm::telemetry::WriteTraceIfConfigured();
      return result;
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return Usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
  return Usage();
}
