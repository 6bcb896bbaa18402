#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <queue>
#include <sstream>

#include "common/logging.h"

namespace mcm {

std::string_view OpTypeName(OpType op) {
  switch (op) {
    case OpType::kInput: return "Input";
    case OpType::kConstant: return "Constant";
    case OpType::kConv2d: return "Conv2d";
    case OpType::kDepthwiseConv2d: return "DepthwiseConv2d";
    case OpType::kMatMul: return "MatMul";
    case OpType::kAdd: return "Add";
    case OpType::kMul: return "Mul";
    case OpType::kRelu: return "Relu";
    case OpType::kGelu: return "Gelu";
    case OpType::kTanh: return "Tanh";
    case OpType::kSigmoid: return "Sigmoid";
    case OpType::kSoftmax: return "Softmax";
    case OpType::kMaxPool: return "MaxPool";
    case OpType::kAvgPool: return "AvgPool";
    case OpType::kBatchNorm: return "BatchNorm";
    case OpType::kLayerNorm: return "LayerNorm";
    case OpType::kConcat: return "Concat";
    case OpType::kSplit: return "Split";
    case OpType::kEmbedding: return "Embedding";
    case OpType::kReshape: return "Reshape";
    case OpType::kTranspose: return "Transpose";
    case OpType::kReduce: return "Reduce";
    case OpType::kOutput: return "Output";
  }
  return "Unknown";
}

int Graph::AddNode(OpType op, std::string name, double compute_flops,
                   double output_bytes, double param_bytes) {
  const int id = NumNodes();
  nodes_.push_back(Node{id, op, std::move(name), compute_flops, output_bytes,
                        param_bytes});
  succs_.emplace_back();
  preds_.emplace_back();
  return id;
}

void Graph::AddEdge(int src, int dst) {
  MCM_CHECK_GE(src, 0);
  MCM_CHECK_GE(dst, 0);
  MCM_CHECK_LT(src, NumNodes());
  MCM_CHECK_LT(dst, NumNodes());
  MCM_CHECK_NE(src, dst) << "self-edge on node " << src;
  if (HasEdge(src, dst)) return;
  edges_.push_back(Edge{src, dst});
  succs_[static_cast<size_t>(src)].push_back(dst);
  preds_[static_cast<size_t>(dst)].push_back(src);
}

bool Graph::HasEdge(int src, int dst) const {
  // Scan the shorter adjacency list, so dedup stays linear on a high fan-out
  // (or fan-in) node.
  const auto& out = succs_[static_cast<size_t>(src)];
  const auto& in = preds_[static_cast<size_t>(dst)];
  if (in.size() < out.size()) {
    return std::find(in.begin(), in.end(), src) != in.end();
  }
  return std::find(out.begin(), out.end(), dst) != out.end();
}

double Graph::TotalFlops() const {
  double total = 0.0;
  for (const Node& n : nodes_) total += n.compute_flops;
  return total;
}

double Graph::TotalParamBytes() const {
  double total = 0.0;
  for (const Node& n : nodes_) total += n.param_bytes;
  return total;
}

double Graph::TotalOutputBytes() const {
  double total = 0.0;
  for (const Node& n : nodes_) total += n.output_bytes;
  return total;
}

std::vector<int> Graph::TopologicalOrder() const {
  std::vector<int> indeg(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    indeg[i] = InDegree(static_cast<int>(i));
  }
  // Min-heap over ready node ids keeps the order deterministic.
  std::priority_queue<int, std::vector<int>, std::greater<>> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indeg[i] == 0) ready.push(static_cast<int>(i));
  }
  std::vector<int> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    const int u = ready.top();
    ready.pop();
    order.push_back(u);
    for (int v : Successors(u)) {
      if (--indeg[static_cast<size_t>(v)] == 0) ready.push(v);
    }
  }
  MCM_CHECK_EQ(order.size(), nodes_.size()) << "graph has a cycle";
  return order;
}

std::vector<int> Graph::Depths() const {
  std::vector<int> depth(nodes_.size(), 0);
  for (int u : TopologicalOrder()) {
    for (int v : Successors(u)) {
      depth[static_cast<size_t>(v)] =
          std::max(depth[static_cast<size_t>(v)], depth[static_cast<size_t>(u)] + 1);
    }
  }
  return depth;
}

int Graph::CriticalPathLength() const {
  const std::vector<int> depth = Depths();
  int best = 0;
  for (int d : depth) best = std::max(best, d);
  return best;
}

bool Graph::IsAcyclic() const {
  std::vector<int> indeg(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    indeg[i] = InDegree(static_cast<int>(i));
  }
  std::vector<int> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (indeg[i] == 0) ready.push_back(static_cast<int>(i));
  }
  size_t visited = 0;
  while (!ready.empty()) {
    const int u = ready.back();
    ready.pop_back();
    ++visited;
    for (int v : Successors(u)) {
      if (--indeg[static_cast<size_t>(v)] == 0) ready.push_back(v);
    }
  }
  return visited == nodes_.size();
}

std::string Graph::Validate() const {
  for (const Node& n : nodes_) {
    for (const double cost : {n.compute_flops, n.output_bytes, n.param_bytes}) {
      if (!std::isfinite(cost) || cost < 0.0) {
        std::ostringstream os;
        os << "node " << n.id << " (" << n.name
           << ") has a negative or non-finite resource";
        return os.str();
      }
    }
  }
  if (!IsAcyclic()) return "graph contains a cycle";
  return "";
}

void Graph::WriteDot(std::ostream& os) const {
  os << "digraph \"" << name_ << "\" {\n";
  for (const Node& n : nodes_) {
    os << "  n" << n.id << " [label=\"" << n.name << "\\n"
       << OpTypeName(n.op) << "\"];\n";
  }
  for (const Edge& e : edges_) {
    os << "  n" << e.src << " -> n" << e.dst << ";\n";
  }
  os << "}\n";
}

}  // namespace mcm
