// Incremental (delta) evaluation of the analytical cost model.
//
// Single-node-move local search re-scores partitions that differ from an
// already-scored incumbent by one node, yet a full CostModel::Evaluate
// walks every node and edge each time.
// DeltaEvaluator materializes per-chip aggregates (compute time inputs,
// ingress/egress transfer bytes, resident parameter bytes, cut-edge-pair
// counts) once per base partition and then updates them under
// Apply(node, to_chip) / Undo() in O(degree(node) + size of touched chips),
// including incremental re-checks of the static constraints (Eq. 2-4) so
// invalid neighbors are rejected without any full walk.
//
// The bit-identical contract (non-negotiable): a delta Score() equals a
// fresh AnalyticalCostModel::Evaluate to the last bit.  Floating-point
// aggregates are never patched with += / -= deltas, which would drift;
// instead every touched chip is *re-summed from its member node list in the
// exact canonical accumulation order ComputeChipLoads uses* (node-id order;
// one ingress contribution per distinct remote producer, in producer-id
// order).  Re-summing makes the state path-independent -- any Apply
// sequence reaching assignment A yields the same bits as Rebase(A) -- so
// Undo is simply the reverse Apply, with no aggregate snapshots.  The
// contract is enforced by a randomized fuzz against the full model and
// against DeltaEvaluatorReference (the trivially-correct oracle below,
// mirroring the matrix_reference.cc pattern).
//
// Two consumers hold an evaluator as their incumbent and screen each move
// with StaticallyValid().  HillClimbSearch scores the valid ones through
// PartitionEnv::Reward(const DeltaEvaluator&), which reads Score() when the
// env's model is an AnalyticalCostModel with the evaluator's config.
// ProbeSingleNodeMoves scores them through a caller-supplied callback.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "costmodel/cost_model.h"
#include "graph/graph.h"
#include "partition/partition.h"

namespace mcm {

// Incremental evaluator over one (graph, base partition).  Partitions must
// be complete (every node assigned a chip in range); callers screen
// incomplete candidates before binding.  Not thread-safe; use one instance
// per thread.
class DeltaEvaluator {
 public:
  // `graph` must outlive the evaluator and not be mutated while bound.
  DeltaEvaluator(const Graph& graph, McmConfig config);

  // Rebuilds every aggregate from `base`: complete, 1 <= num_chips <=
  // kMaxChips, assignment sized to the graph.  Clears the undo stack.
  void Rebase(const Partition& base);

  bool bound() const { return partition_.num_chips > 0; }

  // Moves `node` to `to_chip` and updates aggregates plus constraint state.
  // Cost: O(degree(node)) count updates + a canonical re-sum of the touched
  // chips (source, destination, and the chips holding the node's direct
  // predecessors/successors).  Pushes an undo record.
  void Apply(int node, int to_chip);

  // Reverts the most recent un-undone Apply (checked).
  void Undo();
  int undo_depth() const { return static_cast<int>(undo_.size()); }

  // Makes the current assignment the new base: clears the undo stack
  // without touching any aggregate, so long runs that accept moves do not
  // grow an unbounded undo history.
  void CommitBase() { undo_.clear(); }

  // Static validity (Eq. 2-4) of the current assignment, from maintained
  // counters: O(num_chips * chip out-degree) bitset words, no graph walk.
  bool StaticallyValid() const;

  // The analytical evaluation of the current assignment; bit-identical to
  // AnalyticalCostModel(config).Evaluate(graph, partition()).
  EvalResult Score() const;

  const Graph& graph() const { return *graph_; }
  const Partition& partition() const { return partition_; }
  const ChipLoad& load(int chip) const {
    return loads_[static_cast<std::size_t>(chip)];
  }
  const McmConfig& config() const { return config_; }

 private:
  void MoveNode(int node, int to_chip);
  void ResumChip(int chip);
  void AddCutPair(int a, int b);
  void RemoveCutPair(int a, int b);

  const Graph* graph_;
  const McmConfig config_;
  Partition partition_;  // num_chips == 0 until the first Rebase.
  // members_[chip]: node ids on the chip, sorted ascending so a re-sum
  // visits them in the same order the full walk does.
  std::vector<std::vector<int>> members_;
  std::vector<ChipLoad> loads_;
  // cut_pairs_[a * C + b]: count of edges with src on chip a, dst on chip
  // b != a.  adjacency_[a] is the derived bitset (count > 0), i.e. exactly
  // ChipDependencyAdjacency of the current assignment.
  std::vector<int> cut_pairs_;
  std::vector<std::uint64_t> adjacency_;
  int eq2_violations_ = 0;          // Edges with chip(src) > chip(dst).
  std::uint64_t nonempty_mask_ = 0; // Chips with at least one node.
  std::vector<std::pair<int, int>> undo_;  // (node, previous chip).
  std::vector<int> producer_scratch_;      // Ingress dedup workspace.
};

// Trivially-correct oracle with DeltaEvaluator's interface: Apply mutates a
// stored assignment, Score runs a fresh full Evaluate.  Exists so the fuzz
// test compares the optimized evaluator against an implementation whose
// correctness is obvious (the matrix_reference.cc pattern).
class DeltaEvaluatorReference {
 public:
  DeltaEvaluatorReference(const Graph& graph, McmConfig config);

  void Rebase(const Partition& base);
  void Apply(int node, int to_chip);
  void Undo();
  int undo_depth() const { return static_cast<int>(undo_.size()); }
  bool StaticallyValid() const;
  EvalResult Score() const;
  const Partition& partition() const { return partition_; }

 private:
  const Graph* graph_;
  mutable AnalyticalCostModel model_;  // Evaluate is non-const on CostModel.
  Partition partition_;
  std::vector<std::pair<int, int>> undo_;
};

}  // namespace mcm
