#include "solver/cp_solver.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace mcm {

CpSolver::CpSolver(const Graph& graph, int num_chips, Options options)
    : graph_(graph), num_chips_(num_chips), options_(options) {
  MCM_CHECK_GT(num_chips, 0);
  MCM_CHECK_LE(num_chips, kMaxChips);
  MCM_CHECK(graph.IsAcyclic()) << "graph must be a DAG";
  Reset();
}

void CpSolver::Reset() {
  const auto n = static_cast<std::size_t>(graph_.NumNodes());
  domains_.assign(n, FullDomain(num_chips_));
  trail_.clear();
  level_starts_.clear();
  decisions_.clear();
  queue_.clear();
  in_queue_.assign(n, 0);
  newly_fixed_.clear();
  support_.assign(static_cast<std::size_t>(num_chips_),
                  static_cast<int>(n));
  fixed_count_.assign(static_cast<std::size_t>(num_chips_), 0);
  if (num_chips_ == 1) fixed_count_[0] = static_cast<int>(n);
  support_zero_pending_ = false;
  support_one_pending_ = false;
  fixed_adj_.assign(static_cast<std::size_t>(num_chips_), 0);
  solve_start_propagations_ = stats_.propagations;
}

bool CpSolver::BudgetExhausted() const {
  return options_.propagation_budget > 0 &&
         stats_.propagations - solve_start_propagations_ >=
             options_.propagation_budget;
}

bool CpSolver::Narrow(int node, ChipDomain new_domain) {
  ChipDomain& domain = domains_[static_cast<std::size_t>(node)];
  const ChipDomain old_domain = domain;
  new_domain &= old_domain;
  if (new_domain == old_domain) return true;
  if (new_domain == 0) return false;  // Wipeout; state left unchanged.
  trail_.push_back(TrailEntry{node, old_domain});
  domain = new_domain;
  ++stats_.propagations;

  ChipDomain removed = old_domain & ~new_domain;
  while (removed != 0) {
    const int chip = __builtin_ctzll(removed);
    removed &= removed - 1;
    const int count = --support_[static_cast<std::size_t>(chip)];
    if (count == 0) support_zero_pending_ = true;
    if (count == 1) support_one_pending_ = true;
  }

  if (!in_queue_[static_cast<std::size_t>(node)]) {
    in_queue_[static_cast<std::size_t>(node)] = 1;
    queue_.push_back(node);
  }
  if (DomainSize(new_domain) == 1) {
    newly_fixed_.push_back(node);
    ++fixed_count_[static_cast<std::size_t>(DomainMin(new_domain))];
  }
  return true;
}

bool CpSolver::PropagateEdges(int node) {
  const ChipDomain domain = GetDomain(node);
  const ChipDomain ge_min = MaskFrom(DomainMin(domain));
  const ChipDomain le_max = MaskUpTo(DomainMax(domain));
  for (int succ : graph_.Successors(node)) {
    if (!Narrow(succ, GetDomain(succ) & ge_min)) return false;
  }
  for (int pred : graph_.Predecessors(node)) {
    if (!Narrow(pred, GetDomain(pred) & le_max)) return false;
  }
  return true;
}

bool CpSolver::PropagateNoSkip() {
  const int n = graph_.NumNodes();
  if (support_zero_pending_) {
    support_zero_pending_ = false;
    // A chip with no remaining supporter can never be used, so no chip above
    // it can be used either (Eq. 3): cap every domain below the first hole.
    int cap = num_chips_;
    for (int d = 0; d < num_chips_; ++d) {
      if (support_[static_cast<std::size_t>(d)] == 0) {
        cap = d;
        break;
      }
    }
    if (cap < num_chips_) {
      const ChipDomain mask = cap == 0 ? 0 : FullDomain(cap);
      if (mask == 0) return false;  // No usable chip at all.
      for (int u = 0; u < n; ++u) {
        if (!Narrow(u, GetDomain(u) & mask)) return false;
      }
    }
  }
  // Pigeonhole pruning: a node may sit on chip c only if at least c *other*
  // nodes can sit strictly below c (Eq. 3 forces chips 0..c-1 to be
  // non-empty).  Let A(c) = #nodes with DomainMin < c; chip c is allowed for
  // node u iff A(c) - [DomainMin(u) < c] >= c.  This is a sound (though not
  // Hall-complete) counting rule that catches infeasible high placements at
  // the decision that caused them instead of via deep backtracking.
  {
    min_hist_.assign(static_cast<std::size_t>(num_chips_) + 1, 0);
    for (int u = 0; u < n; ++u) {
      ++min_hist_[static_cast<std::size_t>(DomainMin(GetDomain(u)))];
    }
    ChipDomain m0 = 0;  // Chips c with A(c) >= c.
    ChipDomain m1 = 0;  // Chips c with A(c) >= c + 1.
    int below = 0;      // A(c): nodes with min < c.
    for (int c = 0; c < num_chips_; ++c) {
      if (below >= c) m0 |= 1ULL << c;
      if (below >= c + 1) m1 |= 1ULL << c;
      below += min_hist_[static_cast<std::size_t>(c)];
    }
    for (int u = 0; u < n; ++u) {
      const ChipDomain domain = GetDomain(u);
      const int min_u = DomainMin(domain);
      ChipDomain allowed = m1 & MaskFrom(min_u + 1);
      if (DomainContains(m0, min_u)) allowed |= 1ULL << min_u;
      if (min_u > 0) allowed |= MaskUpTo(min_u - 1);  // Not in domain anyway.
      if (!Narrow(u, domain & allowed)) return false;
    }
  }
  if (support_one_pending_) {
    support_one_pending_ = false;
    // Chips strictly below some node's minimum chip are definitely used; if
    // such a chip has a single possible supporter, that node must take it.
    int required_prefix = 0;
    for (int u = 0; u < n; ++u) {
      required_prefix = std::max(required_prefix, DomainMin(GetDomain(u)));
    }
    for (int d = 0; d < required_prefix; ++d) {
      if (support_[static_cast<std::size_t>(d)] != 1) continue;
      for (int u = 0; u < n; ++u) {
        if (DomainContains(GetDomain(u), d)) {
          if (!IsFixed(u) && !Narrow(u, 1ULL << d)) return false;
          break;
        }
      }
    }
  }
  return true;
}

void CpSolver::RebuildFixedChipGraph() {
  std::fill(fixed_adj_.begin(), fixed_adj_.end(), 0);
  for (const Edge& e : graph_.edges()) {
    if (!IsFixed(e.src) || !IsFixed(e.dst)) continue;
    const int a = FixedValue(e.src);
    const int b = FixedValue(e.dst);
    if (a != b) fixed_adj_[static_cast<std::size_t>(a)] |= 1ULL << b;
  }
  delta_ = ChipLongestPaths(fixed_adj_, num_chips_);
}

bool CpSolver::PropagateTriangle() {
  newly_fixed_.clear();
  RebuildFixedChipGraph();
  // Bits strictly between two chips.
  auto between = [](int a, int b) -> ChipDomain {
    return b > a + 1 ? (MaskFrom(a + 1) & MaskUpTo(b - 1)) : 0;
  };
  // Every direct dependency between fixed chips must have longest path 1;
  // span_mask collects the chips strictly inside some dependency's span.
  ChipDomain span_mask = 0;
  for (int a = 0; a < num_chips_; ++a) {
    ChipDomain row = fixed_adj_[static_cast<std::size_t>(a)];
    while (row != 0) {
      const int b = __builtin_ctzll(row);
      row &= row - 1;
      if (delta_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] !=
          1) {
        return false;
      }
      span_mask |= between(a, b);
    }
  }
  // Connectivity strengthening: chips already holding fixed nodes are
  // assumed to end up path-connected in the chip dependency graph, which
  // holds for connected dataflow graphs.  A used chip inside a span will
  // then complete an indirect path that violates Eq. 4: fail now, and keep
  // span interiors out of every unfixed domain.  This caps structures like
  // transformer residual windows at the decision that would overrun them
  // instead of a thousand decisions later.  It is slightly incomplete (it
  // excludes solutions that interpose a never-connected chip inside a
  // dependency span) but essential for tractable sampling on deep graphs.
  ChipDomain used_mask = 0;
  for (int d = 0; d < num_chips_; ++d) {
    if (fixed_count_[static_cast<std::size_t>(d)] > 0) used_mask |= 1ULL << d;
  }
  if ((span_mask & used_mask) != 0) return false;
  if (span_mask != 0) {
    for (int u = 0; u < graph_.NumNodes(); ++u) {
      if (!Narrow(u, GetDomain(u) & ~span_mask)) return false;
    }
  }

  // Global forward checking against the *current* fixed chip graph: a graph
  // edge between a node fixed on chip a and an unfixed node may only create
  // a chip edge (a, b) that keeps every direct dependency at longest path 1.
  // Since the fixed chip graph only grows, any chip edge that violates the
  // property now also violates it in every completion -- pruning it is
  // sound.  We precompute, per chip, the set of legal target/source chips
  // with bitset algebra, then sweep all graph edges with a fixed endpoint.
  const int c = num_chips_;
  const ChipDomain full = FullDomain(c);
  // reach_from[x]: chips with a path from x; reach_to[x]: chips reaching x;
  // radj[y]: direct chip predecessors of y.
  reach_from_.assign(static_cast<std::size_t>(c), 0);
  reach_to_.assign(static_cast<std::size_t>(c), 0);
  radj_.assign(static_cast<std::size_t>(c), 0);
  for (int a = 0; a < c; ++a) {
    for (int b = a + 1; b < c; ++b) {
      if (delta_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] >=
          1) {
        reach_from_[static_cast<std::size_t>(a)] |= 1ULL << b;
        reach_to_[static_cast<std::size_t>(b)] |= 1ULL << a;
      }
    }
    ChipDomain row = fixed_adj_[static_cast<std::size_t>(a)];
    while (row != 0) {
      const int b = __builtin_ctzll(row);
      row &= row - 1;
      radj_[static_cast<std::size_t>(b)] |= 1ULL << a;
    }
  }
  allowed_succ_.assign(static_cast<std::size_t>(c), full);
  allowed_pred_.assign(static_cast<std::size_t>(c), full);
  for (int a = 0; a < c; ++a) {
    // Successor masks: adding chip edge (a, b) must not (i) shortcut an
    // existing indirect path a ~> b, nor (ii) create an indirect path
    // x ~> a -> b ~> y alongside any existing direct edge (x, y) with
    // x in {a} u reach_to(a) and y in {b} u reach_from(b).
    ChipDomain danger_succs = fixed_adj_[static_cast<std::size_t>(a)];
    ChipDomain upstream = reach_to_[static_cast<std::size_t>(a)];
    while (upstream != 0) {
      const int x = __builtin_ctzll(upstream);
      upstream &= upstream - 1;
      danger_succs |= fixed_adj_[static_cast<std::size_t>(x)];
    }
    ChipDomain forbidden = 0;
    for (int b = a + 1; b < c; ++b) {
      const bool shortcut =
          delta_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] >= 2;
      const bool used_between = (used_mask & between(a, b)) != 0;
      const ChipDomain downstream =
          reach_from_[static_cast<std::size_t>(b)] | (1ULL << b);
      if (shortcut || used_between || (downstream & danger_succs) != 0) {
        forbidden |= 1ULL << b;
      }
    }
    // Duplicating an existing direct edge changes nothing; same-chip and
    // upstream-chip placements create no edge from a.
    allowed_succ_[static_cast<std::size_t>(a)] =
        (full & ~forbidden) | fixed_adj_[static_cast<std::size_t>(a)] |
        (1ULL << a);

    // Predecessor masks, mirrored: adding chip edge (b, a) for b < a.
    ChipDomain danger_preds = radj_[static_cast<std::size_t>(a)];
    ChipDomain downstream_of_a = reach_from_[static_cast<std::size_t>(a)];
    while (downstream_of_a != 0) {
      const int y = __builtin_ctzll(downstream_of_a);
      downstream_of_a &= downstream_of_a - 1;
      danger_preds |= radj_[static_cast<std::size_t>(y)];
    }
    forbidden = 0;
    for (int b = 0; b < a; ++b) {
      const bool shortcut =
          delta_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] >= 2;
      const bool used_between = (used_mask & between(b, a)) != 0;
      const ChipDomain upstream_of_b =
          reach_to_[static_cast<std::size_t>(b)] | (1ULL << b);
      if (shortcut || used_between || (upstream_of_b & danger_preds) != 0) {
        forbidden |= 1ULL << b;
      }
    }
    allowed_pred_[static_cast<std::size_t>(a)] =
        (full & ~forbidden) | radj_[static_cast<std::size_t>(a)] | (1ULL << a);
  }

  // Sweep every edge, constraining each endpoint by the union of legal
  // targets over the *whole domain* of the other endpoint (the fixed case
  // is the singleton-domain special case).  This catches conflicts between
  // two still-open variables -- e.g. a graph input pinned low while its
  // consumer's chain context forces it high -- at the decision that created
  // them rather than through deep backtracking.
  for (const Edge& e : graph_.edges()) {
    const ChipDomain src_domain = GetDomain(e.src);
    const ChipDomain dst_domain = GetDomain(e.dst);
    if (DomainSize(src_domain) <= 4) {
      ChipDomain allowed = 0;
      ChipDomain bits = src_domain;
      while (bits != 0) {
        const int a = __builtin_ctzll(bits);
        bits &= bits - 1;
        allowed |= allowed_succ_[static_cast<std::size_t>(a)];
      }
      if (!Narrow(e.dst, dst_domain & allowed)) return false;
    }
    if (DomainSize(dst_domain) <= 4) {
      ChipDomain allowed = 0;
      ChipDomain bits = dst_domain;
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        allowed |= allowed_pred_[static_cast<std::size_t>(b)];
      }
      if (!Narrow(e.src, GetDomain(e.src) & allowed)) return false;
    }
  }
  return true;
}

bool CpSolver::Propagate() {
  while (true) {
    while (!queue_.empty()) {
      const int node = queue_.back();
      queue_.pop_back();
      in_queue_[static_cast<std::size_t>(node)] = 0;
      if (!PropagateEdges(node)) return false;
    }
    if (!PropagateNoSkip()) return false;
    if (!queue_.empty()) continue;
    if (!newly_fixed_.empty()) {
      if (!PropagateTriangle()) return false;
      continue;  // Pruning may have re-populated the queue or fixed nodes.
    }
    return true;
  }
}

CpSolver::Decision CpSolver::PopLevel() {
  MCM_CHECK(!level_starts_.empty());
  const std::size_t start = level_starts_.back();
  level_starts_.pop_back();
  for (std::size_t i = trail_.size(); i > start; --i) {
    const TrailEntry& entry = trail_[i - 1];
    ChipDomain& domain = domains_[static_cast<std::size_t>(entry.node)];
    if (DomainSize(domain) == 1 && DomainSize(entry.old_domain) > 1) {
      --fixed_count_[static_cast<std::size_t>(DomainMin(domain))];
    }
    ChipDomain restored = entry.old_domain & ~domain;
    while (restored != 0) {
      const int chip = __builtin_ctzll(restored);
      restored &= restored - 1;
      ++support_[static_cast<std::size_t>(chip)];
    }
    domain = entry.old_domain;
  }
  trail_.resize(start);
  Decision decision = decisions_.back();
  decisions_.pop_back();
  ++stats_.backtracks;
  return decision;
}

void CpSolver::ClearPropagationState() {
  for (int node : queue_) in_queue_[static_cast<std::size_t>(node)] = 0;
  queue_.clear();
  newly_fixed_.clear();
  support_zero_pending_ = false;
  support_one_pending_ = false;
}

int CpSolver::SetDomain(int node, ChipDomain domain) {
  MCM_CHECK_GE(node, 0);
  MCM_CHECK_LT(node, num_nodes());
  if (BudgetExhausted()) return kBudgetExhausted;
  level_starts_.push_back(trail_.size());
  decisions_.push_back(Decision{node, domain});

  const ChipDomain target = GetDomain(node) & domain;
  if (target != 0 && Narrow(node, target) && Propagate()) {
    return NumDecisions();
  }

  // Failure: undo levels, excluding each failed attempt so it is not
  // retried, until the exclusion propagates cleanly.
  while (true) {
    ClearPropagationState();
    const Decision failed = PopLevel();
    const ChipDomain remaining =
        GetDomain(failed.node) & ~failed.attempted;
    if (remaining != 0 && Narrow(failed.node, remaining) && Propagate()) {
      return NumDecisions();
    }
    if (decisions_.empty()) {
      ClearPropagationState();
      return -1;  // Root infeasible.
    }
  }
}

int CpSolver::MaxFixedChip() const {
  for (int d = num_chips_ - 1; d >= 0; --d) {
    if (fixed_count_[static_cast<std::size_t>(d)] > 0) return d;
  }
  return -1;
}

ChipDomain CpSolver::UnderQuotaMask(int quota) const {
  ChipDomain mask = 0;
  for (int d = 0; d < num_chips_; ++d) {
    if (fixed_count_[static_cast<std::size_t>(d)] < quota) mask |= 1ULL << d;
  }
  return mask;
}

int CpSolver::NumFixedNodes() const {
  int total = 0;
  for (int count : fixed_count_) total += count;
  return total;
}

bool CpSolver::AllFixed() const { return NumFixedNodes() == num_nodes(); }

Partition CpSolver::ExtractPartition() const {
  Partition partition = Partition::Empty(num_nodes(), num_chips_);
  for (int u = 0; u < num_nodes(); ++u) {
    if (IsFixed(u)) {
      partition.assignment[static_cast<std::size_t>(u)] = FixedValue(u);
    }
  }
  return partition;
}

}  // namespace mcm
