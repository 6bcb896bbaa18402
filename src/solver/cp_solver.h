// Constraint-programming solver for the multi-chip partitioning constraints.
//
// This is the reproduction's stand-in for CP-SAT, implementing exactly the
// interface the paper's Algorithms 1 and 2 use: the solver owns one variable
// y_i per node with a chip-set *domain*, callers query domains with
// `GetDomain` and commit choices with `SetDomain`, and each `SetDomain` runs
// *constraint propagation* that recursively prunes other domains.  When a
// choice wipes out some domain, the solver *backtracks*: it undoes trailing
// decisions (excluding the failed values so they are not retried) and
// returns the new decision index, which can be lower than before -- the
// paper's `i = S.set_domain(u, {y'_u})`.
//
// Enforced constraints (Section 3):
//   Eq. (2) acyclic dataflow  -- bounds propagation over every edge.
//   Eq. (3) no skipping chips -- chip-support counting with prefix forcing.
//   Eq. (4) triangle          -- incremental chip-dependency-graph check on
//                                every newly fixed node plus domain pruning
//                                of its neighbors.
//
// Because assigning every node to chip 0 satisfies all static constraints,
// the problem is always satisfiable and drivers always terminate.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "partition/partition.h"

namespace mcm {

// Bitset of chips [0, num_chips).
using ChipDomain = std::uint64_t;

constexpr ChipDomain FullDomain(int num_chips) {
  return num_chips >= 64 ? ~0ULL : (1ULL << num_chips) - 1;
}
constexpr int DomainMin(ChipDomain d) { return __builtin_ctzll(d); }
constexpr int DomainMax(ChipDomain d) { return 63 - __builtin_clzll(d); }
constexpr int DomainSize(ChipDomain d) { return __builtin_popcountll(d); }
constexpr bool DomainContains(ChipDomain d, int chip) {
  return (d >> chip) & 1ULL;
}
// Bits >= chip.
constexpr ChipDomain MaskFrom(int chip) {
  return chip >= 64 ? 0 : ~0ULL << chip;
}
// Bits <= chip.
constexpr ChipDomain MaskUpTo(int chip) {
  return chip >= 63 ? ~0ULL : (1ULL << (chip + 1)) - 1;
}

class CpSolver {
 public:
  struct Options {
    // Work budget per solve attempt: when > 0, a SetDomain call issued after
    // the solve (since the last Reset) has accumulated this many propagation
    // events fails with kBudgetExhausted instead of searching on.  Drivers
    // treat that like any failure and degrade to the greedy heuristic (see
    // modes.cc), so a pathological instance costs bounded work instead of
    // aborting the run.  0 = unlimited (the default).
    std::int64_t propagation_budget = 0;
  };

  // SetDomain return value when the solve attempt exceeded its
  // propagation_budget (distinct from -1, root infeasible).
  static constexpr int kBudgetExhausted = -2;

  struct Stats {
    std::int64_t backtracks = 0;      // Decision levels undone.
    std::int64_t propagations = 0;    // Domain-narrowing events.
  };

  CpSolver(const Graph& graph, int num_chips)
      : CpSolver(graph, num_chips, Options{}) {}
  CpSolver(const Graph& graph, int num_chips, Options options);

  CpSolver(const CpSolver&) = delete;
  CpSolver& operator=(const CpSolver&) = delete;

  // Discards all decisions and restores the root state (with root-level
  // propagation applied).
  void Reset();

  int num_nodes() const { return static_cast<int>(domains_.size()); }
  int num_chips() const { return num_chips_; }
  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }

  // The paper's get_domain: current valid chips for `node`.
  ChipDomain GetDomain(int node) const {
    return domains_[static_cast<std::size_t>(node)];
  }

  bool IsFixed(int node) const { return DomainSize(GetDomain(node)) == 1; }
  int FixedValue(int node) const { return DomainMin(GetDomain(node)); }

  // Highest chip any currently-fixed node occupies, or -1 when none is
  // fixed.  Drivers use this for the open-chips-in-order value-selection
  // rule (sample chips <= MaxFixedChip()+1 when possible), which avoids
  // opening a chip before all lower chips are used -- holes are usually
  // unfillable and their infeasibility surfaces only hundreds of decisions
  // later.
  int MaxFixedChip() const;

  // Chips currently holding fewer than `quota` fixed nodes.  Drivers use
  // this as a soft load-balancing preference so that unbiased sampling does
  // not dump the whole tail of the graph onto the last opened chip.
  ChipDomain UnderQuotaMask(int quota) const;

  // Total number of fixed nodes (by decision or propagation).
  int NumFixedNodes() const;

  // The paper's set_domain: restricts `node`'s domain to `domain` (the
  // intersection with the current domain is used), runs propagation, and
  // returns the new decision count.  On failure the attempted values are
  // excluded and earlier decisions are undone as needed, so the returned
  // index may be smaller than the index before the call.  Returns -1 only
  // if the root becomes infeasible (impossible for this constraint system
  // unless the caller excluded chip 0 everywhere).
  int SetDomain(int node, ChipDomain domain);

  int NumDecisions() const { return static_cast<int>(decisions_.size()); }

  // True when every variable is fixed; `ExtractPartition` then returns the
  // solution, which is guaranteed statically valid.
  bool AllFixed() const;
  Partition ExtractPartition() const;

 private:
  struct TrailEntry {
    int node;
    ChipDomain old_domain;
  };
  struct Decision {
    int node;
    ChipDomain attempted;  // The mask passed to SetDomain.
  };

  // Narrows a domain, recording the old value on the trail and enqueueing
  // the node for propagation.  Returns false on wipeout.
  bool Narrow(int node, ChipDomain new_domain);

  // Runs the propagation queue to fixpoint.  Returns false on failure.
  bool Propagate();

  bool PropagateEdges(int node);
  bool PropagateNoSkip();
  // Full validity check of the fixed-node chip graph plus neighbor-domain
  // pruning; run when nodes became fixed since the last call.
  bool PropagateTriangle();

  // Undoes the top decision level.  Returns the decision that was undone.
  Decision PopLevel();

  // Drops queued-but-unprocessed propagation work after a failure.
  void ClearPropagationState();

  // Computes the longest-path matrix of the chip graph induced by *fixed*
  // cross-chip edges into delta_ and adjacency into fixed_adj_.
  void RebuildFixedChipGraph();

  // True when the current solve attempt has exhausted its propagation
  // budget (see Options); checked at every SetDomain.
  bool BudgetExhausted() const;

  const Graph& graph_;
  const int num_chips_;
  const Options options_;
  Stats stats_;

  // Budget bookkeeping for the current solve attempt (reset by Reset()).
  std::int64_t solve_start_propagations_ = 0;

  std::vector<ChipDomain> domains_;
  std::vector<TrailEntry> trail_;
  std::vector<std::size_t> level_starts_;
  std::vector<Decision> decisions_;

  // Propagation worklist.
  std::vector<int> queue_;
  std::vector<char> in_queue_;
  std::vector<int> newly_fixed_;

  // Number of nodes whose domain contains each chip, plus dirty flags set by
  // Narrow when some chip's support dropped to 0 / 1.
  std::vector<int> support_;
  // Number of nodes currently fixed on each chip (maintained through the
  // trail); MaxFixedChip, NumFixedNodes and AllFixed read it, as does the
  // triangle pruning's used-chip strengthening.
  std::vector<int> fixed_count_;
  bool support_zero_pending_ = false;
  bool support_one_pending_ = false;

  // Scratch for the triangle check and its global forward-checking masks.
  std::vector<std::uint64_t> fixed_adj_;
  std::vector<std::vector<int>> delta_;
  std::vector<ChipDomain> reach_from_;
  std::vector<ChipDomain> reach_to_;
  std::vector<ChipDomain> radj_;
  std::vector<ChipDomain> allowed_succ_;
  std::vector<ChipDomain> allowed_pred_;

  // Scratch histogram of domain minima for the pigeonhole rule.
  std::vector<int> min_hist_;
};

}  // namespace mcm
