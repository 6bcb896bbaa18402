#include "solver/modes.h"

#include <algorithm>
#include <limits>

#include "common/env.h"
#include "common/logging.h"
#include "partition/heuristics.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

// Telemetry is write-only: recording reads no RNG and never feeds back into
// the solve, so results stay bit-identical with telemetry on or off.
void RecordSolveTelemetry(const CpSolver::Stats& before,
                          const CpSolver::Stats& after,
                          const SolveResult& result) {
  static telemetry::Counter& propagations =
      telemetry::Counter::Get("solver/propagations");
  static telemetry::Counter& backtracks =
      telemetry::Counter::Get("solver/backtracks");
  static telemetry::Counter& set_domain_calls =
      telemetry::Counter::Get("solver/set_domain_calls");
  static telemetry::Counter& failures =
      telemetry::Counter::Get("solver/solve_failures");
  propagations.Add(after.propagations - before.propagations);
  backtracks.Add(after.backtracks - before.backtracks);
  set_domain_calls.Add(result.set_domain_calls);
  if (!result.success) failures.Add();
}

// Defensive ceiling on solver work: a solve that exceeds this many SetDomain
// calls per node (heavy thrashing) is reported as a failure rather than
// looping.  MCMPART_SOLVER_BUDGET overrides the default of 30; read once so
// every solve in a process sees the same budget.
std::int64_t SetDomainCallsPerNode() {
  static const std::int64_t budget =
      GetEnvInt("MCMPART_SOLVER_BUDGET", 30, 1, 1000000);
  return budget;
}

// The degradation ladder's last rungs: the greedy contiguous heuristic, or
// the always-valid single-chip partition when even greedy violates a
// constraint.  Returned (success=true, degraded=true) when every restart
// attempt exhausted its budget, so callers never see an aborted solve.
SolveResult DegradedFallback(const CpSolver& solver, const Graph& graph) {
  static telemetry::Counter& degraded_solves =
      telemetry::Counter::Get("solver/degraded_solves");
  SolveResult result;
  Partition greedy = GreedyContiguousByCount(graph, solver.num_chips());
  if (!IsStaticallyValid(graph, greedy)) {
    greedy = Partition::Empty(graph.NumNodes(), solver.num_chips());
    std::fill(greedy.assignment.begin(), greedy.assignment.end(), 0);
  }
  result.partition = std::move(greedy);
  result.success = true;
  result.degraded = true;
  degraded_solves.Add();
  return result;
}

// Value-selection policy shared by the solve drivers.  Two soft rules shape
// where a sampled chip lands, each dropped if it would empty the choice set:
//   1. Open chips in order (chips <= MaxFixedChip()+1): opening a chip
//      before all lower chips are in use leaves holes that are usually
//      unfillable, and the failure surfaces only hundreds of decisions
//      later.
//   2. Avoid overfull chips (fewer than ~2x the fair share of nodes):
//      otherwise unbiased sampling parks the entire tail of the graph on
//      the last opened chip.
// Neither rule excludes any *solution* -- they only bias which one sampling
// walks toward; the returned mask is always a non-empty subset of `domain`.
// `pace_scale` stretches the per-chip node target for one whole solve: at
// 1.0 the frontier reaches the last chip together with the last node; below
// 1.0 it arrives early (tail-heavy partitions, possibly overflowing chip
// memory on the target); above 1.0 it never gets there (fewer chips used).
// Drawing the scale once per solve is what gives SAMPLE-mode exploration its
// variance -- without it every sample is node-count balanced and best-of-N
// search curves stay flat.
ChipDomain PreferredValues(const CpSolver& solver, ChipDomain domain,
                           double pace_scale) {
  const int num_chips = solver.num_chips();
  const int per_chip = std::max(
      1, static_cast<int>(pace_scale *
                          ((solver.num_nodes() + num_chips - 1) / num_chips)));
  // Pacing: chip k opens only once ~k * per_chip nodes are placed.
  const int pace_limit = solver.NumFixedNodes() / per_chip + 1;
  const int window_top =
      std::min({solver.MaxFixedChip() + 1, pace_limit, num_chips - 1});
  const ChipDomain open_window = MaskUpTo(window_top);
  const int quota = 2 * per_chip + 1;
  const ChipDomain under_quota = solver.UnderQuotaMask(quota);
  if ((domain & open_window & under_quota) != 0) {
    return domain & open_window & under_quota;
  }
  if ((domain & open_window) != 0) return domain & open_window;
  return domain;
}

// Per-solve pacing draw; see PreferredValues.
double DrawPaceScale(Rng& rng) { return rng.UniformDouble(0.92, 1.7); }

// Nodes on which `partition` agrees with the FIX-mode `candidate`.
int CountKept(const Partition& partition, const Partition& candidate) {
  int kept = 0;
  for (std::size_t u = 0; u < partition.assignment.size(); ++u) {
    if (partition.assignment[u] == candidate.assignment[u]) ++kept;
  }
  return kept;
}

// The attempt loop behind the restarting entry points: each attempt runs
// `solve` on a fresh ALAP-random order until one succeeds; when none does,
// the result degrades to DegradedFallback.  set_domain_calls sums over all
// attempts.
template <typename SolveFn>
SolveResult SolveWithRestarts(CpSolver& solver, const Graph& graph, Rng& rng,
                              int max_attempts, SolveFn solve) {
  SolveResult result;
  std::int64_t total_calls = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const std::vector<int> order = AlapRandomTopologicalOrder(graph, rng);
    result = solve(order);
    total_calls += result.set_domain_calls;
    if (result.success) break;
  }
  if (!result.success) result = DegradedFallback(solver, graph);
  result.set_domain_calls = total_calls;
  return result;
}

}  // namespace

ProbMatrix ProbMatrix::Uniform(int num_nodes, int num_chips) {
  ProbMatrix probs;
  probs.num_nodes = num_nodes;
  probs.num_chips = num_chips;
  probs.data.assign(
      static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(num_chips),
      1.0 / num_chips);
  return probs;
}

std::vector<int> AlapRandomTopologicalOrder(const Graph& graph, Rng& rng) {
  const int n = graph.NumNodes();
  // ALAP level: sinks at their ASAP depth; everything else as late as its
  // earliest consumer allows.
  const std::vector<int> asap = graph.Depths();
  std::vector<int> alap(static_cast<std::size_t>(n), 0);
  const std::vector<int> topo = graph.TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const int u = *it;
    if (graph.OutDegree(u) == 0) {
      alap[static_cast<std::size_t>(u)] = asap[static_cast<std::size_t>(u)];
      continue;
    }
    int level = std::numeric_limits<int>::max();
    for (int succ : graph.Successors(u)) {
      level = std::min(level, alap[static_cast<std::size_t>(succ)] - 1);
    }
    alap[static_cast<std::size_t>(u)] = level;
  }
  // Decision keys: (level, deferred, random).  Non-source nodes are ordered
  // by ALAP level (a topological order, randomized within levels).  Source
  // nodes (constants / graph inputs) are *deferred until after their
  // earliest consumers*: a source carries no dataflow constraint of its
  // own, so deciding it first means sampling it nearly unconstrained and
  // discovering the conflict (typically against the NoC triangle rule) only
  // when its consumers are fixed.  Decided after them, propagation has
  // already pinned its feasible chips.  The emitted order is therefore not
  // strictly a linear extension -- the solver does not require one.
  struct DecisionKey {
    long long key;
    int node;
  };
  std::vector<DecisionKey> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    int level = alap[static_cast<std::size_t>(u)];
    long long deferred = 0;
    if (graph.InDegree(u) == 0 && graph.OutDegree(u) > 0) {
      int first_consumer = std::numeric_limits<int>::max();
      for (int succ : graph.Successors(u)) {
        first_consumer =
            std::min(first_consumer, alap[static_cast<std::size_t>(succ)]);
      }
      level = first_consumer;
      deferred = 1;
    }
    keys.push_back(
        DecisionKey{(static_cast<long long>(level) << 1) | deferred, u});
  }
  // Shuffle first so equal keys land in random relative order, then
  // stable-sort by key.
  rng.Shuffle(keys);
  std::stable_sort(keys.begin(), keys.end(),
                   [](const DecisionKey& a, const DecisionKey& b) {
                     return a.key < b.key;
                   });
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (const DecisionKey& k : keys) order.push_back(k.node);
  MCM_CHECK_EQ(static_cast<int>(order.size()), n);
  return order;
}

namespace {

SolveResult SolveSampleImpl(CpSolver& solver, std::span<const int> order,
                            const ProbMatrix& probs, Rng& rng) {
  const int n = solver.num_nodes();
  MCM_CHECK_EQ(static_cast<int>(order.size()), n);
  MCM_CHECK_EQ(probs.num_nodes, n);
  MCM_CHECK_EQ(probs.num_chips, solver.num_chips());
  solver.Reset();

  SolveResult result;
  const std::int64_t budget = SetDomainCallsPerNode() * n;
  const double pace_scale = DrawPaceScale(rng);
  int i = 0;
  while (i < n) {
    const int u = order[static_cast<std::size_t>(i)];
    const ChipDomain domain = solver.GetDomain(u);
    // The soft exploration preference applies only when the policy actually
    // has mass there; a confident policy (concentrated row) overrides it.
    ChipDomain mask = PreferredValues(solver, domain, pace_scale);
    if (mask != domain) {
      const auto row = probs.row(u);
      double preferred_mass = 0.0, domain_mass = 0.0;
      for (int chip = 0; chip < solver.num_chips(); ++chip) {
        if (DomainContains(domain, chip)) {
          domain_mass += row[static_cast<std::size_t>(chip)];
          if (DomainContains(mask, chip)) {
            preferred_mass += row[static_cast<std::size_t>(chip)];
          }
        }
      }
      if (preferred_mass < 0.01 * domain_mass) mask = domain;
    }
    const int chip = static_cast<int>(
        rng.SampleDiscreteMasked(probs.row(u), mask));
    i = solver.SetDomain(u, 1ULL << chip);
    ++result.set_domain_calls;
    if (i < 0 || result.set_domain_calls > budget) return result;
  }
  MCM_CHECK(solver.AllFixed());
  result.partition = solver.ExtractPartition();
  result.success = true;
  return result;
}

SolveResult SolveFixImpl(CpSolver& solver, std::span<const int> order,
                         const Partition& candidate, Rng& rng) {
  const int n = solver.num_nodes();
  MCM_CHECK_EQ(static_cast<int>(order.size()), n);
  MCM_CHECK_EQ(static_cast<int>(candidate.assignment.size()), n);
  solver.Reset();

  SolveResult result;
  const std::int64_t budget = SetDomainCallsPerNode() * n;
  const double pace_scale = DrawPaceScale(rng);
  int i = 0;
  while (i < 2 * n) {
    const int u = order[static_cast<std::size_t>(i % n)];
    const ChipDomain domain = solver.GetDomain(u);
    if (i < n) {
      const int wanted = candidate.chip(u);
      // The candidate value must lie in the solver's domain (Algorithm 2's
      // test) *and* within the open-chip window: CP-SAT's stronger
      // propagation would have pruned frontier-incoherent values from the
      // domain itself, while this solver's weaker propagation only discovers
      // them through backtracking -- a candidate that scatters nodes over
      // unopened chips (an untrained policy does) would otherwise thrash
      // the solve.  Coherent candidates pass the window test everywhere.
      const ChipDomain window =
          MaskUpTo(std::min(solver.MaxFixedChip() + 1,
                            solver.num_chips() - 1));
      if (wanted >= 0 && wanted < solver.num_chips() &&
          DomainContains(domain & window, wanted)) {
        i = solver.SetDomain(u, 1ULL << wanted);
      } else {
        // Leave the node open; this still counts as a decision step.
        i = solver.SetDomain(u, domain);
      }
    } else {
      ChipDomain bits = PreferredValues(solver, domain, pace_scale);
      const int pick = static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(DomainSize(bits))));
      for (int skip = 0; skip < pick; ++skip) bits &= bits - 1;
      i = solver.SetDomain(u, 1ULL << __builtin_ctzll(bits));
    }
    ++result.set_domain_calls;
    if (i < 0 || result.set_domain_calls > budget) return result;
  }
  MCM_CHECK(solver.AllFixed());
  result.partition = solver.ExtractPartition();
  result.success = true;
  result.nodes_kept = CountKept(result.partition, candidate);
  return result;
}

}  // namespace

SolveResult SolveSample(CpSolver& solver, std::span<const int> order,
                        const ProbMatrix& probs, Rng& rng) {
  MCM_TRACE_SPAN("solver/sample");
  static telemetry::Counter& sample_solves =
      telemetry::Counter::Get("solver/sample_solves");
  const CpSolver::Stats before = solver.stats();
  const SolveResult result = SolveSampleImpl(solver, order, probs, rng);
  sample_solves.Add();
  RecordSolveTelemetry(before, solver.stats(), result);
  return result;
}

SolveResult SolveFix(CpSolver& solver, std::span<const int> order,
                     const Partition& candidate, Rng& rng) {
  MCM_TRACE_SPAN("solver/fix");
  static telemetry::Counter& fix_solves =
      telemetry::Counter::Get("solver/fix_solves");
  static telemetry::Counter& already_feasible =
      telemetry::Counter::Get("solver/fix_already_feasible");
  static telemetry::Counter& repaired =
      telemetry::Counter::Get("solver/fix_repaired");
  const CpSolver::Stats before = solver.stats();
  const SolveResult result = SolveFixImpl(solver, order, candidate, rng);
  fix_solves.Add();
  RecordSolveTelemetry(before, solver.stats(), result);
  if (result.success) {
    // A repair that keeps every node is the Algorithm 2 fast path: the
    // policy's proposal was already feasible.
    if (result.nodes_kept == solver.num_nodes()) {
      already_feasible.Add();
    } else {
      repaired.Add();
    }
  }
  return result;
}

SolveResult SolveSampleWithRestarts(CpSolver& solver, const Graph& graph,
                                    const ProbMatrix& probs, Rng& rng,
                                    int max_attempts) {
  return SolveWithRestarts(
      solver, graph, rng, max_attempts, [&](std::span<const int> order) {
        return SolveSample(solver, order, probs, rng);
      });
}

SolveResult SolveFixWithRestarts(CpSolver& solver, const Graph& graph,
                                 const Partition& candidate, Rng& rng,
                                 int max_attempts) {
  SolveResult result = SolveWithRestarts(
      solver, graph, rng, max_attempts, [&](std::span<const int> order) {
        return SolveFix(solver, order, candidate, rng);
      });
  if (result.degraded) {
    result.nodes_kept = CountKept(result.partition, candidate);
  }
  return result;
}

Partition ProbeSingleNodeMoves(
    const Graph& graph, const Partition& start, double start_score,
    const std::function<double(const Partition&)>& score, int budget,
    Rng& rng) {
  MCM_TRACE_SPAN("solver/probe");
  static telemetry::Counter& probe_proposals =
      telemetry::Counter::Get("solver/probe_proposals");
  static telemetry::Counter& probe_accepted =
      telemetry::Counter::Get("solver/probe_accepted");
  const int n = graph.NumNodes();
  const int c = start.num_chips;
  if (budget <= 0 || n < 1 || c < 2 || c > kMaxChips || !start.Complete()) {
    return start;
  }
  Partition current = start;
  double current_score = start_score;
  for (int k = 0; k < budget; ++k) {
    probe_proposals.Add();
    const int node = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(n)));
    const int from = current.chip(node);
    int chip = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(c - 1)));
    if (chip >= from) ++chip;
    current.assignment[static_cast<std::size_t>(node)] = chip;
    if (IsStaticallyValid(graph, current)) {
      const double candidate_score = score(current);
      if (candidate_score > current_score) {
        probe_accepted.Add();
        current_score = candidate_score;
        continue;
      }
    }
    current.assignment[static_cast<std::size_t>(node)] = from;
  }
  return current;
}

}  // namespace mcm
