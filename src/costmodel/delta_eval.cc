#include "costmodel/delta_eval.h"

#include <algorithm>

#include "common/logging.h"

namespace mcm {
namespace {

inline std::size_t Idx(int i) { return static_cast<std::size_t>(i); }

}  // namespace

DeltaEvaluator::DeltaEvaluator(const Graph& graph, McmConfig config)
    : graph_(&graph), config_(config) {}

void DeltaEvaluator::Rebase(const Partition& base) {
  MCM_CHECK_EQ(static_cast<int>(base.assignment.size()), graph_->NumNodes());
  MCM_CHECK_GE(base.num_chips, 1);
  MCM_CHECK_LE(base.num_chips, kMaxChips);
  MCM_CHECK(base.Complete()) << "delta evaluation needs a complete partition";

  partition_ = base;
  const int num_chips = base.num_chips;
  // ComputeChipLoads *is* the canonical accumulation order; starting from
  // its output keeps Rebase trivially on-contract.
  loads_ = ComputeChipLoads(*graph_, base);
  members_.assign(Idx(num_chips), {});
  for (int u = 0; u < graph_->NumNodes(); ++u) {
    members_[Idx(partition_.chip(u))].push_back(u);  // Ascending ids.
  }
  cut_pairs_.assign(Idx(num_chips) * Idx(num_chips), 0);
  adjacency_.assign(Idx(num_chips), 0);
  eq2_violations_ = 0;
  for (const Edge& e : graph_->edges()) {
    const int a = partition_.chip(e.src);
    const int b = partition_.chip(e.dst);
    if (a > b) ++eq2_violations_;
    if (a != b) AddCutPair(a, b);
  }
  nonempty_mask_ = 0;
  for (int c = 0; c < num_chips; ++c) {
    if (!members_[Idx(c)].empty()) nonempty_mask_ |= 1ULL << c;
  }
  undo_.clear();
}

void DeltaEvaluator::AddCutPair(int a, int b) {
  int& count = cut_pairs_[Idx(a) * Idx(partition_.num_chips) + Idx(b)];
  if (count++ == 0) adjacency_[Idx(a)] |= 1ULL << b;
}

void DeltaEvaluator::RemoveCutPair(int a, int b) {
  int& count = cut_pairs_[Idx(a) * Idx(partition_.num_chips) + Idx(b)];
  MCM_CHECK_GT(count, 0);
  if (--count == 0) adjacency_[Idx(a)] &= ~(1ULL << b);
}

// MCM_CONTRACT(deterministic): delta state transitions feed the
// delta-vs-full oracle identity check; nothing here may depend on clocks,
// randomness, or hash order.
void DeltaEvaluator::Apply(int node, int to_chip) {
  MCM_CHECK(bound()) << "Apply before Rebase";
  MCM_CHECK_GE(node, 0);
  MCM_CHECK_LT(node, graph_->NumNodes());
  MCM_CHECK_GE(to_chip, 0);
  MCM_CHECK_LT(to_chip, partition_.num_chips);
  const int from = partition_.chip(node);
  undo_.emplace_back(node, from);
  if (to_chip != from) MoveNode(node, to_chip);
}

// MCM_CONTRACT(deterministic)
void DeltaEvaluator::Undo() {
  MCM_CHECK(!undo_.empty()) << "Undo without a matching Apply";
  const auto [node, prev] = undo_.back();
  undo_.pop_back();
  if (prev != partition_.chip(node)) MoveNode(node, prev);
}

void DeltaEvaluator::MoveNode(int node, int to_chip) {
  const int from = partition_.chip(node);
  // The chips whose aggregates can change: both endpoints of the move plus
  // every chip holding a direct neighbor (their cut traffic shifts).
  std::uint64_t touched = (1ULL << from) | (1ULL << to_chip);
  for (const int p : graph_->Predecessors(node)) {
    const int cp = partition_.chip(p);
    touched |= 1ULL << cp;
    if (cp > from) --eq2_violations_;
    if (cp > to_chip) ++eq2_violations_;
    if (cp != from) RemoveCutPair(cp, from);
    if (cp != to_chip) AddCutPair(cp, to_chip);
  }
  for (const int s : graph_->Successors(node)) {
    const int cs = partition_.chip(s);
    touched |= 1ULL << cs;
    if (from > cs) --eq2_violations_;
    if (to_chip > cs) ++eq2_violations_;
    if (from != cs) RemoveCutPair(from, cs);
    if (to_chip != cs) AddCutPair(to_chip, cs);
  }
  partition_.assignment[Idx(node)] = to_chip;
  // Membership lists stay sorted so re-sums visit nodes in the same id
  // order the full walk uses.
  auto& src_list = members_[Idx(from)];
  src_list.erase(std::lower_bound(src_list.begin(), src_list.end(), node));
  auto& dst_list = members_[Idx(to_chip)];
  dst_list.insert(std::upper_bound(dst_list.begin(), dst_list.end(), node),
                  node);
  if (src_list.empty()) nonempty_mask_ &= ~(1ULL << from);
  nonempty_mask_ |= 1ULL << to_chip;
  while (touched != 0) {
    const int c = __builtin_ctzll(touched);
    touched &= touched - 1;
    ResumChip(c);
  }
}

void DeltaEvaluator::ResumChip(int chip) {
  // Canonical re-sum: exactly the ComputeChipLoads accumulation restricted
  // to this chip.  Never patch the old load with floating-point deltas.
  ChipLoad load;
  const auto& members = members_[Idx(chip)];
  for (const int u : members) {
    const Node& n = graph_->node(u);
    load.compute_flops += n.compute_flops;
    load.param_bytes += n.param_bytes;
    load.num_nodes += 1;
  }
  // Egress: members in id order; one send per distinct remote consumer
  // chip, added one-by-one like the full walk (not count * bytes, which
  // would round differently).
  for (const int u : members) {
    const Node& n = graph_->node(u);
    std::uint64_t remote_chips = 0;
    for (const int succ : graph_->Successors(u)) {
      const int dst = partition_.chip(succ);
      if (dst != chip) remote_chips |= 1ULL << dst;
    }
    while (remote_chips != 0) {
      remote_chips &= remote_chips - 1;
      load.bytes_out += n.output_bytes;
    }
  }
  // Ingress: one receive per distinct remote producer, in ascending
  // producer id -- the order the full walk's outer node loop yields.
  auto& producers = producer_scratch_;
  producers.clear();
  for (const int u : members) {
    for (const int p : graph_->Predecessors(u)) {
      if (partition_.chip(p) != chip) producers.push_back(p);
    }
  }
  std::sort(producers.begin(), producers.end());
  producers.erase(std::unique(producers.begin(), producers.end()),
                  producers.end());
  for (const int p : producers) {
    load.bytes_in += graph_->node(p).output_bytes;
  }
  loads_[Idx(chip)] = load;
}

bool DeltaEvaluator::StaticallyValid() const {
  MCM_CHECK(bound()) << "StaticallyValid before Rebase";
  if (eq2_violations_ != 0) return false;  // Eq. (2).
  // Eq. (3): used chips form a prefix iff the nonempty bits are contiguous
  // from bit 0, i.e. mask + 1 clears every set bit.
  if ((nonempty_mask_ & (nonempty_mask_ + 1)) != 0) return false;
  // Eq. (4): a direct chip dependency a -> b may not coexist with a longer
  // chip path a ~> b.  Eq. (2) holding means every chip edge goes low ->
  // high, so a high -> low sweep is reverse-topological: reach[c] = chips
  // reachable from c in >= 1 edge.  A path a -> s ~> b (length >= 2) exists
  // iff b is reachable from some direct successor s, so the violation test
  // is one AND against the union of successor reach sets.  Equivalent to
  // CheckTriangleDependency's delta(a, b) == 1 requirement, without the
  // O(chips^2) longest-path table or its allocations.
  const int num_chips = partition_.num_chips;
  std::uint64_t reach[kMaxChips];
  for (int a = num_chips - 1; a >= 0; --a) {
    const std::uint64_t row = adjacency_[Idx(a)];
    std::uint64_t via = 0;
    std::uint64_t bits = row;
    while (bits != 0) {
      via |= reach[__builtin_ctzll(bits)];
      bits &= bits - 1;
    }
    if ((row & via) != 0) return false;
    reach[Idx(a)] = row | via;
  }
  return true;
}

EvalResult DeltaEvaluator::Score() const {
  MCM_CHECK(bound()) << "Score before Rebase";
  if (!StaticallyValid()) {
    return EvalResult::Invalid(EvalFailure::kStaticConstraint);
  }
  // Mirrors AnalyticalCostModel::Evaluate over the maintained loads.
  const double effective_rate =
      config_.chip_flops_per_s * config_.effective_utilization;
  double max_stage = 0.0;
  double total_stage = 0.0;
  for (const ChipLoad& load : loads_) {
    if (load.num_nodes == 0) continue;
    const double compute_s = load.compute_flops / effective_rate;
    const double comm_s =
        (load.bytes_in + load.bytes_out) / config_.link_bandwidth_bytes_per_s;
    max_stage = std::max(max_stage, compute_s + comm_s);
    total_stage += compute_s + comm_s;
  }
  return EvalResult::Valid(max_stage, total_stage);
}

}  // namespace mcm
