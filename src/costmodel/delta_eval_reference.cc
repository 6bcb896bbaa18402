// Reference oracle for DeltaEvaluator (see delta_eval.h): the same
// interface implemented the obviously-correct way -- Apply mutates a stored
// assignment and every query runs a fresh full computation.  The fuzz test
// in tests/costmodel_test.cc drives both implementations through identical
// Apply/Undo sequences and requires bit-identical results, the same
// fast-vs-reference pattern matrix_reference.cc uses for the GEMM kernels.
#include "costmodel/delta_eval.h"

#include "common/logging.h"

namespace mcm {

DeltaEvaluatorReference::DeltaEvaluatorReference(const Graph& graph,
                                                McmConfig config)
    : graph_(&graph), model_(config) {}

void DeltaEvaluatorReference::Rebase(const Partition& base) {
  MCM_CHECK_EQ(static_cast<int>(base.assignment.size()), graph_->NumNodes());
  MCM_CHECK_GE(base.num_chips, 1);
  MCM_CHECK_LE(base.num_chips, kMaxChips);
  MCM_CHECK(base.Complete()) << "delta evaluation needs a complete partition";
  partition_ = base;
  undo_.clear();
}

void DeltaEvaluatorReference::Apply(int node, int to_chip) {
  MCM_CHECK_GE(node, 0);
  MCM_CHECK_LT(node, graph_->NumNodes());
  MCM_CHECK_GE(to_chip, 0);
  MCM_CHECK_LT(to_chip, partition_.num_chips);
  undo_.emplace_back(node, partition_.chip(node));
  partition_.assignment[static_cast<std::size_t>(node)] = to_chip;
}

void DeltaEvaluatorReference::Undo() {
  MCM_CHECK(!undo_.empty()) << "Undo without a matching Apply";
  const auto [node, prev] = undo_.back();
  undo_.pop_back();
  partition_.assignment[static_cast<std::size_t>(node)] = prev;
}

bool DeltaEvaluatorReference::StaticallyValid() const {
  return IsStaticallyValid(*graph_, partition_);
}

EvalResult DeltaEvaluatorReference::Score() const {
  return model_.Evaluate(*graph_, partition_);
}

}  // namespace mcm
