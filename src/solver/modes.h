// The paper's two solver driving strategies (Algorithms 1 and 2).
//
// Both walk a node order, asking the solver for the current valid domain of
// each node and committing one chip choice at a time; the solver propagates
// and backtracks internally (SetDomain returns the new decision index).
//
//   SAMPLE: each node's chip is sampled from the policy's probability row
//           restricted to the current valid domain.
//   FIX:    the candidate partition y is kept wherever it is valid; nodes
//           whose candidate is invalid are left open in a first pass and
//           assigned uniformly at random from their remaining domains in a
//           second pass.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "partition/partition.h"
#include "solver/cp_solver.h"

namespace mcm {

// Row-major [num_nodes x num_chips] probability matrix P; rows need not be
// normalized (sampling normalizes over the valid domain anyway).
struct ProbMatrix {
  int num_nodes = 0;
  int num_chips = 0;
  std::vector<double> data;

  static ProbMatrix Uniform(int num_nodes, int num_chips);

  std::span<const double> row(int node) const {
    return std::span<const double>(data)
        .subspan(static_cast<std::size_t>(node) * num_chips,
                 static_cast<std::size_t>(num_chips));
  }
  std::span<double> row(int node) {
    return std::span<double>(data).subspan(
        static_cast<std::size_t>(node) * num_chips,
        static_cast<std::size_t>(num_chips));
  }
};

struct SolveResult {
  bool success = false;
  Partition partition;
  // For FIX mode: how many nodes kept the candidate's assignment.
  int nodes_kept = 0;
  // SetDomain invocations this solve (a proxy for solver effort).
  std::int64_t set_domain_calls = 0;
  // True when every solve attempt exhausted its budget and the partition is
  // the greedy-heuristic fallback (statically valid, but no CP search went
  // into it).  Only the WithRestarts entry points degrade; success is true.
  bool degraded = false;
};

// As-late-as-possible randomized topological order: among ready nodes, one
// with the smallest ALAP level is picked uniformly at random.  This keeps a
// node (in particular a constant / graph input) undecided until just before
// its consumers, by which time propagation has narrowed its domain -- a
// plain random linear extension decides such nodes first, when they are
// nearly unconstrained, and the resulting conflicts only surface hundreds
// of decisions later (catastrophic backtracking on BERT-sized graphs).
// The paper draws a fresh random order per solve "to explore a larger
// decision space"; this is that order for every solve driver.
std::vector<int> AlapRandomTopologicalOrder(const Graph& graph, Rng& rng);

// Algorithm 1: SAMPLE mode.  Resets the solver, then assigns nodes in
// `order`, sampling each chip from `probs` restricted to the live domain.
SolveResult SolveSample(CpSolver& solver, std::span<const int> order,
                        const ProbMatrix& probs, Rng& rng);

// Algorithm 2: FIX mode.  Resets the solver, keeps valid candidate
// assignments in pass one, randomizes the remainder in pass two.
SolveResult SolveFix(CpSolver& solver, std::span<const int> order,
                     const Partition& candidate, Rng& rng);

// Restarting variants (the recommended entry points): each attempt uses a
// fresh ALAP-random order and a bounded SetDomain budget (30 calls per node
// by default; MCMPART_SOLVER_BUDGET overrides); chronic thrashing on one
// order is usually cheap to escape on another -- the same reasoning behind
// CP-SAT's aggressive restart policy.  When every attempt exhausts its
// budget, the result *degrades* instead of failing: the greedy contiguous
// heuristic (partition/heuristics.h), or the always-valid single-chip
// partition if even that is invalid, is returned with success=true and
// degraded=true (counted in solver/degraded_solves).  Callers therefore
// always receive a statically valid partition.
SolveResult SolveSampleWithRestarts(CpSolver& solver, const Graph& graph,
                                    const ProbMatrix& probs, Rng& rng,
                                    int max_attempts = 6);
SolveResult SolveFixWithRestarts(CpSolver& solver, const Graph& graph,
                                 const Partition& candidate, Rng& rng,
                                 int max_attempts = 6);

// Greedy single-node-move refinement of a (statically valid, complete)
// solver result: draws `budget` random (node, other-chip) moves, screens
// each with IsStaticallyValid, and keeps a move only when `score` strictly
// improves on the incumbent (`start_score` must be score(start)).
// Deterministic for a given rng state.  Returns the refined partition
// (== start when nothing improved); every returned partition is statically
// valid.  The service's solver mode probes each baseline this way before
// responding.  Counters: solver/probe_proposals, solver/probe_accepted.
Partition ProbeSingleNodeMoves(
    const Graph& graph, const Partition& start, double start_score,
    const std::function<double(const Partition&)>& score, int budget,
    Rng& rng);

}  // namespace mcm
