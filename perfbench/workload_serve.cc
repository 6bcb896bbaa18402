// serve: an in-process service::Server with its default config on a Unix
// socket, driven from one generator thread over `nproc` connections.
// Every request is unique (the placement cache never hits): a seeded corpus
// graph at 36 chips on the analytical model, with a fixed mode mix.  SA is
// left out (README.md says why).
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "costmodel/cost_model.h"
#include "faults/faults.h"
#include "graph/generators.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "search/search.h"
#include "service/handler.h"
#include "service/protocol.h"
#include "service/server.h"
#include "solver/modes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mcm::service::PartitionRequest;
using mcm::service::PartitionResponse;
using mcm::service::RequestMode;

constexpr int kNumChips = 36;
constexpr int kSetupRepeats = 7;

// The mode mix, cycled request by request.
struct ModeSpec {
  RequestMode mode;
  const char* method;
  int budget;
};
constexpr ModeSpec kMix[] = {
    {RequestMode::kSolver, "random", 16},     // Baseline + probe budget.
    {RequestMode::kSearch, "hillclimb", 16},
    {RequestMode::kSearch, "random", 2},
    {RequestMode::kZeroShot, "random", 2},
};

// Offered rates, about 40% and 85% of the capacity the parent commit
// measured on a 4-core host (serve.max_rps); fixed so that runs compare.
constexpr double kLightRate = 105.0;
constexpr double kHeavyRate = 225.0;
// Every phase offers whole cycles of (graph, mode) pairs, so every seed
// offers the same work.  Three cycles (1044 requests) put at least 10
// requests beyond a p99.
constexpr std::size_t kMinCycles = 3;
// Untraced runs alternate one light-rate cycle (3.3 s) with
// kSaturationCyclesPerBlock saturation cycles (about 1.1 s each; one cycle's
// rate swings by 20% with the host, so there are more of them), one such
// block per kSecondsPerBlock of --seconds.
constexpr std::size_t kSaturationCyclesPerBlock = 2;
constexpr double kSecondsPerBlock = 5.0;
// The saturation phase keeps this many requests outstanding: enough to
// fill both executors' batches of 8 with a full batch queued behind each,
// and far below the admission queue's 128, so nothing is rejected.
constexpr std::size_t kSaturationWindow = 32;
// max_rps ladder (traced runs): kLadderRungs rates 5% apart from
// kLadderBase (100 to 670 req/s, against a capacity near 300), each probed
// with kMinCycles cycles; a rate passes when p99 (failures count as misses)
// stays under kP99LimitMs and the backlog does not grow.
constexpr double kLadderBase = 100.0;
constexpr int kLadderRungs = 40;
constexpr double kP99LimitMs = 250.0;
// A ladder probe stops offering load once this many requests are
// outstanding: the rate has failed, and stopping keeps the server's
// admission queue (128 deep) from rejecting anything.
constexpr std::size_t kMaxOutstanding = 64;
// A run whose generator sent its p99 request later than this is invalid.
constexpr double kMaxLagP99Ms = 50.0;

std::string EncodeGraph(const mcm::Graph& graph) {
  std::ostringstream os;
  graph.Serialize(os);
  return os.str();
}

struct Inputs {
  std::vector<std::string> graph_texts;  // The corpus, serialized.
  std::vector<std::size_t> graph_order;  // Seeded permutation of the corpus.
  std::string socket_path;
  // Requests per cycle: corpus size x mix length.
  std::size_t cycle() const { return graph_texts.size() * std::size(kMix); }
};

// Request `index` of this seed: a unique id and request seed, the mix's
// mode for index % 4 and graph graph_order[index % 87].  The corpus size
// and the mix length are coprime, so every cycle of 348 requests covers
// each (graph, mode) pair once.
PartitionRequest MakeRequest(const Inputs& in, std::uint64_t seed,
                             std::size_t index) {
  const ModeSpec& spec = kMix[index % std::size(kMix)];
  PartitionRequest request;
  request.id = "r" + std::to_string(index);
  request.mode = spec.mode;
  request.method = spec.method;
  request.model = "analytical";
  request.graph_text =
      in.graph_texts[in.graph_order[index % in.graph_order.size()]];
  request.chips = kNumChips;
  request.budget = spec.budget;
  // The protocol carries numbers as JSON doubles: keep seeds below 2^53 so
  // the server receives exactly the seed that was sent.
  request.seed = mcm::HashCombine(seed, 0x73657276ULL + index) >> 11;
  return request;
}

int Connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (fd >= 0) close(fd);
    throw std::runtime_error("serve: cannot connect to " + path);
  }
  return fd;
}

void WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = write(fd, data.data() + sent, data.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("serve: write failed");
    sent += static_cast<std::size_t>(n);
  }
}

// Client side of the load: `connections` sockets, one generator.
class Generator {
 public:
  Generator(const std::string& path, int connections) {
    for (int i = 0; i < connections; ++i) fds_.push_back(Connect(path));
    buffers_.resize(fds_.size());
  }
  ~Generator() {
    for (int fd : fds_) close(fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // Sends `lines` (ids r<first>..) and waits for every response; fills
  // timings and responses by position.
  // - Open loop (`rate_per_s` > 0): sends follow an even schedule.  With
  //   `max_outstanding` > 0 the schedule is abandoned once that many
  //   requests await a response -- the server is overloaded -- only the
  //   requests sent so far are kept, and Run returns false.
  // - Closed loop (`rate_per_s` == 0): a request goes out whenever fewer
  //   than `max_outstanding` await a response; it is scheduled when sent.
  bool Run(const std::vector<std::string>& lines, std::size_t first,
           double rate_per_s, std::size_t max_outstanding,
           std::vector<RequestTiming>& timings,
           std::vector<PartitionResponse>& responses) {
    const bool open = rate_per_s > 0.0;
    std::size_t n = lines.size();
    timings.assign(n, RequestTiming{});
    responses.assign(n, PartitionResponse{});
    const std::vector<double> schedule =
        open ? EvenSchedule(Now() + 0.005, rate_per_s, n) : std::vector<double>{};
    std::size_t next = 0, answered = 0;
    bool completed = true;
    double last_progress = Now();
    std::vector<pollfd> pfds(fds_.size());
    while (answered < next || next < n) {
      double now = Now();
      if (open && max_outstanding > 0 && next < n &&
          next - answered >= max_outstanding) {
        n = next;  // Overloaded: send nothing more.
        completed = false;
      }
      while (next < n && (open ? schedule[next] <= now
                               : next - answered < max_outstanding)) {
        timings[next].sent_s = Now();
        timings[next].scheduled_s = open ? schedule[next] : timings[next].sent_s;
        WriteAll(fds_[next % fds_.size()], lines[next]);
        ++next;
        now = Now();
      }
      // Spin rather than sleep: a sleeping generator pays a wake-up for
      // every send and every response, and on a virtualised host that
      // wake-up latency, not the server, would dominate the figures.  The
      // yield hands the CPU to a server thread that shares it.
      for (std::size_t i = 0; i < fds_.size(); ++i) pfds[i] = {fds_[i], POLLIN, 0};
      const int ready = poll(pfds.data(), pfds.size(), /*timeout_ms=*/0);
      if (ready == 0) sched_yield();
      if (ready < 0 && errno != EINTR) throw std::runtime_error("serve: poll failed");
      for (std::size_t i = 0; ready > 0 && i < fds_.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char chunk[65536];
        const ssize_t got = recv(fds_[i], chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (got <= 0) throw std::runtime_error("serve: server closed a connection");
        const double arrived = Now();
        std::string& buffer = buffers_[i];
        buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t start = 0, newline;
        while ((newline = buffer.find('\n', start)) != std::string::npos) {
          PartitionResponse response;
          std::string error;
          if (!mcm::service::ParseResponse(buffer.substr(start, newline - start),
                                           &response, &error)) {
            throw std::runtime_error("serve: bad response: " + error);
          }
          start = newline + 1;
          const std::size_t index =
              static_cast<std::size_t>(std::stoull(response.id.substr(1)));
          if (index < first || index - first >= n) {
            throw std::runtime_error("serve: unexpected response " + response.id);
          }
          RequestTiming& t = timings[index - first];
          t.done_s = arrived;
          t.ok = response.ok;
          responses[index - first] = std::move(response);
          ++answered;
          last_progress = arrived;
        }
        buffer.erase(0, start);
      }
      if (Now() - last_progress > 60.0) {
        throw std::runtime_error("serve: no response for 60 s");
      }
    }
    timings.resize(n);
    responses.resize(n);
    return completed;
  }

 private:
  std::vector<int> fds_;
  std::vector<std::string> buffers_;
};

// Latencies from the schedule; a failed request counts as infinitely slow,
// so it misses any limit.
std::vector<double> LatenciesMs(const std::vector<RequestTiming>& timings) {
  std::vector<double> ms;
  for (const RequestTiming& t : timings) {
    ms.push_back(t.ok ? LatencyFromSchedule(t) * 1e3
                      : std::numeric_limits<double>::infinity());
  }
  return ms;
}

struct PhaseResult {
  std::vector<PartitionRequest> requests;
  std::vector<std::string> lines;
  std::vector<RequestTiming> timings;
  std::vector<PartitionResponse> responses;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  double served_per_s = 0.0;  // Requests over first send to last response.
  std::size_t failed = 0;
  bool completed = true;  // False: abandoned as overloaded.
};

class Load {
 public:
  Load(const Inputs& in, std::uint64_t seed, Generator& generator)
      : in_(in), seed_(seed), generator_(generator) {}

  // Offers the next `count` requests at `rate_per_s` (0: closed loop with
  // `max_outstanding` in flight; see Generator::Run).
  PhaseResult Offer(double rate_per_s, std::size_t count,
                    std::size_t max_outstanding = 0) {
    PhaseResult phase;
    const std::size_t first = next_index_;
    for (std::size_t i = 0; i < count; ++i) {
      phase.requests.push_back(MakeRequest(in_, seed_, next_index_++));
      phase.lines.push_back(mcm::service::EncodeRequest(phase.requests.back()) + "\n");
    }
    phase.completed = generator_.Run(phase.lines, first, rate_per_s,
                                     max_outstanding, phase.timings,
                                     phase.responses);
    phase.requests.resize(phase.timings.size());
    phase.lines.resize(phase.timings.size());
    const std::vector<double> ms = LatenciesMs(phase.timings);
    phase.p50_ms = Percentile(ms, 0.50);
    phase.p99_ms = Percentile(ms, 0.99);
    std::vector<double> lag_ms;
    double begin_s = std::numeric_limits<double>::infinity(), end_s = 0.0;
    for (const RequestTiming& t : phase.timings) {
      lag_ms.push_back(GeneratorLag(t) * 1e3);
      if (!t.ok) ++phase.failed;
      begin_s = std::min(begin_s, t.sent_s);
      end_s = std::max(end_s, t.done_s);
    }
    if (end_s > begin_s) {
      phase.served_per_s =
          static_cast<double>(phase.timings.size()) / (end_s - begin_s);
    }
    phase.lag_p99_ms = Percentile(lag_ms, 0.99);
    lag_p99_ms_ = std::max(lag_p99_ms_, phase.lag_p99_ms);
    attempted_ += phase.timings.size();
    for (std::size_t i = 0; i < phase.responses.size(); ++i) {
      served_.emplace_back(first + i, phase.responses[i]);
    }
    failed_ += phase.failed;
    char offered[64];
    if (rate_per_s > 0.0) {
      std::snprintf(offered, sizeof(offered), "%.1f req/s offered", rate_per_s);
    } else {
      std::snprintf(offered, sizeof(offered), "%zu outstanding", max_outstanding);
    }
    std::printf("# serve: %s, %zu sent -> p50 %.2f ms, p99 %.2f ms, "
                "%.1f req/s served, %zu failed, backlog %s, generator lag "
                "p99 %.3f ms\n",
                offered, phase.timings.size(), phase.p50_ms,
                phase.p99_ms, phase.served_per_s, phase.failed,
                !phase.completed ? "overloaded"
                : BacklogGrows(phase.timings) ? "grows" : "steady",
                phase.lag_p99_ms);
    std::fflush(stdout);
    return phase;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  double lag_p99_ms() const { return lag_p99_ms_; }
  // Every response with its request index, in phase order.
  const std::vector<std::pair<std::size_t, PartitionResponse>>& served() const {
    return served_;
  }

 private:
  const Inputs& in_;
  std::uint64_t seed_;
  Generator& generator_;
  std::size_t next_index_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  double lag_p99_ms_ = 0.0;
  std::vector<std::pair<std::size_t, PartitionResponse>> served_;
};

// Starts the server's event loop on its own thread; stops and joins it on
// destruction (also when the run throws).  A loop that throws is reported;
// the generator then sees no responses and ends the run.
class RunningServer {
 public:
  explicit RunningServer(mcm::service::Server& server)
      : server_(server), loop_([this] {
          try {
            server_.Run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: server loop failed: %s\n", e.what());
          }
        }) {}
  ~RunningServer() {
    server_.Shutdown();
    loop_.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

 private:
  mcm::service::Server& server_;
  std::thread loop_;
};

// A started server with its event loop running and a connected
// generator; Stop() tears them down in dependency order.
struct LiveService {
  std::unique_ptr<mcm::service::Server> server;
  std::unique_ptr<RunningServer> running;
  std::unique_ptr<Generator> generator;
  std::unique_ptr<Load> load;

  LiveService() = default;
  ~LiveService() { Stop(); }
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  // Drains and stops the server; `load` keeps what was served.
  void StopServer() {
    running.reset();
    server.reset();
  }
  void Stop() {
    load.reset();
    generator.reset();
    StopServer();
  }
};

// Mirrors service::ExecutePartitionRequest for the analytical-model modes
// of the mix, with a span around every public call.
PartitionResponse ReplayExecute(const PartitionRequest& request) {
  mcm::Graph graph;
  {
    ScopedSpan span("graph/deserialize");
    std::istringstream graph_stream(request.graph_text);
    graph = mcm::Graph::Deserialize(graph_stream);
  }
  mcm::AnalyticalCostModel analytical{mcm::McmConfig{}};
  const mcm::RetryPolicy retry_policy = mcm::RetryPolicy::FromEnv();
  std::unique_ptr<mcm::GraphContext> context;
  {
    ScopedSpan span("rl/context");
    context = std::make_unique<mcm::GraphContext>(graph, request.chips);
  }
  mcm::Rng rng(request.seed);
  mcm::BaselineResult baseline;
  {
    ScopedSpan span("partition/baseline");
    baseline = mcm::ComputeHeuristicBaseline(graph, analytical,
                                             context->solver(), rng, nullptr,
                                             &retry_policy);
  }
  const double anchor = baseline.eval.runtime_s;
  mcm::PartitionEnv env(graph, analytical, anchor,
                        mcm::PartitionEnv::Objective::kThroughput,
                        /*eval_cache_capacity=*/-1, nullptr, &retry_policy);
  if (request.mode == RequestMode::kSolver) {
    double base_reward = 0.0;
    {
      ScopedSpan span("costmodel/score");
      base_reward = env.Reward(baseline.partition);
    }
    if (request.budget > 0) {
      ScopedSpan span("solver/probe");
      mcm::Rng probe_rng(request.seed + 3);
      mcm::ProbeSingleNodeMoves(
          graph, baseline.partition, base_reward,
          [&env](const mcm::Partition& p) { return env.Reward(p); },
          request.budget, probe_rng);
    }
  } else if (request.mode == RequestMode::kSearch) {
    if (request.method == "hillclimb") {
      ScopedSpan span("search/hillclimb");
      mcm::HillClimbSearch(mcm::Rng(request.seed + 1)).Run(*context, env, request.budget);
    } else {
      ScopedSpan span("search/random");
      mcm::RandomSearch(mcm::Rng(request.seed + 1)).Run(*context, env, request.budget);
    }
  } else {
    ScopedSpan span("search/rl_zeroshot");
    mcm::RlConfig config = mcm::RlConfig::Quick();
    config.num_chips = request.chips;
    config.seed = request.seed + 2;
    mcm::PolicyNetwork policy(config);
    mcm::PpoTrainer trainer(policy, mcm::Rng(request.seed + 1));
    ReplayRlSearch(trainer, *context, env, request.budget, /*zero_shot=*/true,
                   nullptr);
  }
  const mcm::Partition& best =
      env.has_best() ? env.best_partition() : baseline.partition;
  mcm::EvalResult best_eval;
  PartitionResponse response;
  {
    ScopedSpan span("costmodel/score");
    response.improvement = env.Score(best, &best_eval);
  }
  response.id = request.id;
  response.ok = true;
  response.assignment = best.assignment;
  response.num_chips = request.chips;
  response.runtime_s = best_eval.runtime_s;
  response.latency_s = best_eval.latency_s;
  response.throughput = best_eval.throughput;
  response.baseline_runtime_s = anchor;
  return response;
}

// Appends a block of requests to a phase; the caller recomputes the
// percentiles over the whole phase.
void AppendPhase(PhaseResult& phase, PhaseResult&& block) {
  const auto append = [](auto& to, auto& from) {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  };
  append(phase.requests, block.requests);
  append(phase.lines, block.lines);
  append(phase.timings, block.timings);
  append(phase.responses, block.responses);
  phase.failed += block.failed;
  phase.completed = phase.completed && block.completed;
}

// A served response equals an offline execution up to the diagnostic
// batch size.
bool SameResponse(PartitionResponse served, const PartitionResponse& offline) {
  served.batch_size = offline.batch_size;
  return served == offline;
}

}  // namespace

void RunServe(const Options& options, Result& result, WorkloadOutput& out) {
  // Busy threads: the generator, the server's event loop and its two
  // executors, each executor running its batch on the default pool with
  // itself as the only lane -- at most nproc in all.
  const int connections = Nproc();
  mcm::SetDefaultThreadCount(std::max(1, connections - 3));
  PrintProvenance(options, mcm::DefaultThreadCount(), mcm::NnThreadCount(),
                  "one generator thread, " + std::to_string(connections) +
                      " connections, server default config (2 executors)");

  Inputs in;
  in.socket_path = ".bench_build/perfbench-" + std::to_string(getpid()) + ".sock";
  out.setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    in.graph_texts.clear();
    in.graph_order.clear();
    for (const mcm::Graph& graph : mcm::MakeCorpus()) {
      in.graph_order.push_back(in.graph_texts.size());
      in.graph_texts.push_back(EncodeGraph(graph));
    }
    if (std::gcd(in.graph_texts.size(), std::size(kMix)) != 1) {
      throw std::runtime_error("serve: corpus size must be coprime with the mix");
    }
    mcm::Rng rng(mcm::HashCombine(options.seed, 0x67726170ULL));
    rng.Shuffle(in.graph_order);
  });
  // Each phase lasts about its share of --seconds at its rate, in whole
  // cycles, and at least kMinCycles of them.
  const std::size_t cycle = in.cycle();
  const auto phase_requests = [&](double share, double rate_per_s) {
    const double cycles = share * options.seconds * rate_per_s /
                          static_cast<double>(cycle);
    return cycle * std::max(kMinCycles,
                            static_cast<std::size_t>(std::lround(cycles)));
  };
  // A Server cannot be started twice in one process (its shutdown flag is
  // process-wide and never cleared), so starting it is timed once and
  // added.  Set-up ends with a warm-up cycle, so lazy pools and arenas are
  // built before anything is timed.
  const double start_s = Now();
  LiveService live;
  mcm::service::ServerConfig config;
  config.socket_path = in.socket_path;
  live.server = std::make_unique<mcm::service::Server>(config);
  live.server->Start();
  live.running = std::make_unique<RunningServer>(*live.server);
  live.generator = std::make_unique<Generator>(in.socket_path, connections);
  live.load = std::make_unique<Load>(in, options.seed, *live.generator);
  live.load->Offer(kHeavyRate, cycle);
  out.setup_s += Now() - start_s;

  MetricsWindow counters;
  Load& load = *live.load;
  const std::size_t warmup_attempted = load.attempted();
  const std::size_t warmup_failed = load.failed();
  // The light rate and saturation alternate cycle by cycle, so that each
  // sees the host over the whole run rather than over one stretch of it.
  PhaseResult light;
  std::vector<double> saturated_per_s;
  const std::size_t blocks = std::max(
      kMinCycles,
      static_cast<std::size_t>(std::lround(options.seconds / kSecondsPerBlock)));
  for (std::size_t b = 0; b < blocks; ++b) {
    AppendPhase(light, load.Offer(kLightRate, cycle));
    for (std::size_t c = 0; c < kSaturationCyclesPerBlock; ++c) {
      saturated_per_s.push_back(
          load.Offer(0.0, cycle, kSaturationWindow).served_per_s);
    }
  }
  const std::vector<double> light_ms = LatenciesMs(light.timings);
  light.p50_ms = Percentile(light_ms, 0.50);
  light.p99_ms = Percentile(light_ms, 0.99);
  // The heavy rate and the ladder feed only per-layer metrics, and the
  // ladder takes about as long as the rest of the run, so only traced runs
  // offer them; untraced runs spend that time on the end-to-end phases.
  PhaseResult heavy;
  int best_rung = -1;
  if (options.trace) {
    heavy = load.Offer(kHeavyRate, phase_requests(0.2, kHeavyRate));
    best_rung = HighestPassingRung(kLadderRungs, [&](int rung) {
      const PhaseResult probe = load.Offer(LadderRate(kLadderBase, rung),
                                           kMinCycles * cycle, kMaxOutstanding);
      return probe.completed && probe.failed == 0 &&
             probe.p99_ms < kP99LimitMs && !BacklogGrows(probe.timings);
    });
  }
  const std::size_t attempted = load.attempted() - warmup_attempted;
  const std::size_t failed = load.failed() - warmup_failed;
  const double lag_p99_ms = load.lag_p99_ms();
  live.StopServer();
  counters.Close();
  std::remove(in.socket_path.c_str());

  result.attempted = static_cast<std::int64_t>(attempted);
  result.failed = static_cast<std::int64_t>(failed);
  if (lag_p99_ms > kMaxLagP99Ms) {
    throw std::runtime_error(
        "serve: run invalid, generator p99 lag " + std::to_string(lag_p99_ms) +
        " ms exceeds " + std::to_string(kMaxLagP99Ms) + " ms");
  }
  // A ladder whose lowest rung fails, or whose highest passes, would clip
  // max_rps to a value that looks normal; such a run is invalid.
  if (options.trace && (best_rung < 0 || best_rung == kLadderRungs - 1)) {
    char why[128];
    std::snprintf(why, sizeof(why),
                  "serve: run invalid, max_rps lies outside the ladder "
                  "(%.0f to %.0f req/s)",
                  kLadderBase, LadderRate(kLadderBase, kLadderRungs - 1));
    throw std::runtime_error(why);
  }
  out.p50_ms = light.p50_ms;
  out.tail_ms = light.p99_ms;
  out.tail_label = "p99 at the light rate";
  // Every saturation cycle offers the same work, so the median over cycles
  // is the capacity with a transient stall of the host filtered out.
  out.throughput_per_s = Median(saturated_per_s);
  result.Check(counters.Count("service/cache_hits") == 0,
               "a unique request hit the placement cache");

  // Output checks on every served response: static constraints and a fresh
  // cost model's runtime.
  std::vector<mcm::Graph> graphs;
  for (const std::string& text : in.graph_texts) {
    std::istringstream graph_stream(text);
    graphs.push_back(mcm::Graph::Deserialize(graph_stream));
  }
  mcm::AnalyticalCostModel fresh{mcm::McmConfig{}};
  std::vector<double> evaluate_s;
  for (const auto& [index, response] : load.served()) {
    if (!response.ok) continue;
    const mcm::Graph& graph =
        graphs[in.graph_order[index % in.graph_order.size()]];
    mcm::Partition placement;
    placement.assignment = response.assignment;
    placement.num_chips = response.num_chips;
    result.Check(StaticallyValid(graph, placement),
                 "served placement violates a static constraint (" + response.id + ")");
    const double t0 = Now();
    const mcm::EvalResult again = fresh.Evaluate(graph, placement);
    evaluate_s.push_back(Now() - t0);
    result.Check(again.valid && again.runtime_s == response.runtime_s,
                 "served placement re-evaluates differently (" + response.id + ")");
  }

  if (!options.trace) return;

  auto& L = out.layers;
  L["serve.light.p50_ms"] = light.p50_ms;
  L["serve.light.p99_ms"] = light.p99_ms;
  L["serve.heavy.p50_ms"] = heavy.p50_ms;
  L["serve.heavy.p99_ms"] = heavy.p99_ms;
  L["serve.max_rps"] = LadderRate(kLadderBase, best_rung);
  std::printf("# serve.max_rps %.1f (rung %d of %d)\n", L["serve.max_rps"],
              best_rung, kLadderRungs);
  L["loadgen.lag_ms.p99"] = lag_p99_ms;
  L["costmodel.evaluate_us.p50"] = Median(evaluate_s) * 1e6;
  L["service.batch_size.mean"] = counters.HistogramMean("service/batch_size");
  L["service.rejected_frac"] =
      counters.Ratio("service/rejected", "service/requests");
  L["service.cache_hit_frac"] =
      static_cast<double>(counters.Count("service/cache_hits")) /
      std::max<std::int64_t>(1, counters.Count("service/cache_hits") +
                                    counters.Count("service/cache_misses"));
  L["solver.probe_accept_frac"] =
      counters.Ratio("solver/probe_accepted", "solver/probe_proposals");
  L["costmodel.delta_fast_frac"] =
      static_cast<double>(counters.Count("costmodel/delta_fast")) /
      std::max<std::int64_t>(1, counters.Count("costmodel/delta_fast") +
                                    counters.Count("costmodel/delta_fallback") +
                                    counters.Count("costmodel/delta_rebuild"));
  L["costmodel.eval_cache_hit_frac"] =
      static_cast<double>(counters.Count("costmodel/eval_cache_hits")) /
      std::max<std::int64_t>(1, counters.Count("costmodel/eval_cache_hits") +
                                    counters.Count("costmodel/eval_cache_misses"));

  // Replay the light phase serially: the execute call itself, its protocol
  // work, then its parts under spans.  Each must equal what was served.
  std::vector<double> execute_s, protocol_s, overhead_ms;
  std::vector<double> mode_execute_s[std::size(kMix)];
  const double direct_start = Now();
  for (std::size_t i = 0; i < light.requests.size(); ++i) {
    double t0 = Now();
    PartitionRequest parsed;
    std::string error;
    const bool parsed_ok = mcm::service::ParseRequest(
        light.lines[i].substr(0, light.lines[i].size() - 1), &parsed, &error);
    result.Check(parsed_ok && parsed == light.requests[i],
                 "request does not survive the protocol (" +
                     light.requests[i].id + ")");
    double protocol = Now() - t0;
    t0 = Now();
    const PartitionResponse offline =
        mcm::service::ExecutePartitionRequest(parsed, nullptr);
    const double execute = Now() - t0;
    t0 = Now();
    const std::string encoded = mcm::service::EncodeResponse(offline);
    protocol += Now() - t0;
    execute_s.push_back(execute);
    mode_execute_s[i % std::size(kMix)].push_back(execute);
    protocol_s.push_back(protocol);
    result.Check(parsed_ok && !encoded.empty() &&
                     SameResponse(light.responses[i], offline),
                 "served response differs from its offline execution (" +
                     light.requests[i].id + ")");
    if (light.timings[i].ok) {
      overhead_ms.push_back(LatencyFromSchedule(light.timings[i]) * 1e3 -
                            execute * 1e3);
    }
  }
  const double direct_wall = Now() - direct_start;
  for (std::size_t m = 0; m < std::size(kMix); ++m) {
    std::printf("# serve: %s/%s budget %d executes in p50 %.3f ms, p99 %.3f ms\n",
                mcm::service::RequestModeName(kMix[m].mode), kMix[m].method,
                kMix[m].budget, Median(mode_execute_s[m]) * 1e3,
                Percentile(mode_execute_s[m], 0.99) * 1e3);
  }

  EnableSpans(true);
  const double traced_start = Now();
  for (std::size_t i = 0; i < light.requests.size(); ++i) {
    PartitionResponse replayed;
    {
      ScopedSpan span("service/execute_replay");
      replayed = ReplayExecute(light.requests[i]);
    }
    result.Check(SameResponse(light.responses[i], replayed),
                 "served response differs from its traced replay (" +
                     light.requests[i].id + ")");
  }
  const double traced_end = Now();
  EnableSpans(false);
  const std::vector<Span> spans = TakeSpans();
  L["layer.coverage_frac"] = PrintLayerTable(spans, traced_start, traced_end);
  L["telemetry.trace_overhead_frac"] =
      (traced_end - traced_start) / direct_wall - 1.0;
  L["service.execute_ms.p50"] = Percentile(execute_s, 0.50) * 1e3;
  L["service.execute_ms.p99"] = Percentile(execute_s, 0.99) * 1e3;
  L["service.protocol_us.p50"] = Median(protocol_s) * 1e6;
  L["service.overhead_ms.p50"] = Percentile(overhead_ms, 0.50);
  L["service.overhead_ms.p99"] = Percentile(overhead_ms, 0.99);
  L["graph.deserialize_ms.p50"] = SpanP50Ms(spans, "graph/deserialize");
  L["partition.baseline_ms.p50"] = SpanP50Ms(spans, "partition/baseline");
  L["solver.probe_ms.p50"] = SpanP50Ms(spans, "solver/probe");
  L["search.hillclimb_ms.p50"] = SpanP50Ms(spans, "search/hillclimb");
  L["search.random_ms.p50"] = SpanP50Ms(spans, "search/random");
  L["rl.sample_rollout_ms.p50"] = SpanP50Ms(spans, "rl/sample_rollout");
  L["solver.sample_ms.p50"] = SpanP50Ms(spans, "solver/correct_rollout");
}

}  // namespace perfbench
