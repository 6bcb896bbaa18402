// Computation-graph representation of an ML workload.
//
// A `Graph` is the directed acyclic graph G = (V, E) of Section 3 of the
// paper: vertices are tensor operations annotated with the resources the
// cost models need (compute FLOPs, output-tensor bytes, resident parameter
// bytes), and edges are data dependencies.  The multi-chip partitioning
// problem maps V onto the chip set D = {0..C-1}.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mcm {

// Operation kinds found in the production-style model corpus.  The exact
// set matters only for (a) per-op cost shaping in the generators and
// (b) the one-hot slice of the GNN node features.
enum class OpType : std::uint8_t {
  kInput = 0,
  kConstant,
  kConv2d,
  kDepthwiseConv2d,
  kMatMul,
  kAdd,
  kMul,
  kRelu,
  kGelu,
  kTanh,
  kSigmoid,
  kSoftmax,
  kMaxPool,
  kAvgPool,
  kBatchNorm,
  kLayerNorm,
  kConcat,
  kSplit,
  kEmbedding,
  kReshape,
  kTranspose,
  kReduce,
  kOutput,
};

inline constexpr int kNumOpTypes = static_cast<int>(OpType::kOutput) + 1;

std::string_view OpTypeName(OpType op);

// One tensor operation.  Plain data: resource annotations have no invariant
// beyond being finite and non-negative, which `Graph::Validate` checks.
struct Node {
  int id = -1;
  OpType op = OpType::kInput;
  std::string name;
  double compute_flops = 0.0;  // Arithmetic work of the op.
  double output_bytes = 0.0;   // Size of the produced tensor.
  double param_bytes = 0.0;    // Weights resident on the op's chip.
};

struct Edge {
  int src = -1;
  int dst = -1;
  friend bool operator==(const Edge&, const Edge&) = default;
};

// Size caps Graph::Deserialize enforces on untrusted input (more than 25x
// BERT's 2138 nodes).
inline constexpr int kMaxGraphNodes = 1 << 16;
inline constexpr int kMaxGraphEdges = 1 << 18;

// A DAG of operations.  Node ids are dense [0, NumNodes()).  Construction is
// append-only (AddNode/AddEdge); analyses (topological order, depths,
// validation) are computed on demand.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Appends a node and returns its id.
  int AddNode(OpType op, std::string name, double compute_flops,
              double output_bytes, double param_bytes = 0.0);

  // Adds a dependency edge src -> dst.  Duplicate edges are ignored.
  // Requires both ids valid and src != dst.
  void AddEdge(int src, int dst);

  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  int NumEdges() const { return static_cast<int>(edges_.size()); }

  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& mutable_node(int id) { return nodes_[static_cast<size_t>(id)]; }
  std::span<const Node> nodes() const { return nodes_; }
  std::span<const Edge> edges() const { return edges_; }

  std::span<const int> Successors(int id) const {
    return succs_[static_cast<size_t>(id)];
  }
  std::span<const int> Predecessors(int id) const {
    return preds_[static_cast<size_t>(id)];
  }
  bool HasEdge(int src, int dst) const;

  int InDegree(int id) const {
    return static_cast<int>(preds_[static_cast<size_t>(id)].size());
  }
  int OutDegree(int id) const {
    return static_cast<int>(succs_[static_cast<size_t>(id)].size());
  }

  // Aggregate resource totals over all nodes.
  double TotalFlops() const;
  double TotalParamBytes() const;
  double TotalOutputBytes() const;

  // A topological order of node ids (Kahn's algorithm, deterministic:
  // smallest-id-first among ready nodes).  Requires IsAcyclic().
  std::vector<int> TopologicalOrder() const;

  // Longest-path depth of each node from any source (sources have depth 0).
  std::vector<int> Depths() const;

  // Length of the longest path in the DAG, in edges; 0 for edgeless graphs.
  int CriticalPathLength() const;

  bool IsAcyclic() const;

  // Checks structural sanity: acyclicity, finite non-negative resources.
  // Returns an empty string when valid, else a description of the problem.
  std::string Validate() const;

  // Graphviz DOT rendering, for debugging and documentation.
  void WriteDot(std::ostream& os) const;

  // Line-oriented text serialization (stable across versions; see
  // serialization.cc for the format).
  void Serialize(std::ostream& os) const;
  // Throws std::runtime_error on parse errors, self-edges, node or edge
  // counts above kMaxGraphNodes / kMaxGraphEdges, and graphs that fail
  // Validate().
  static Graph Deserialize(std::istream& is);

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> succs_;
  std::vector<std::vector<int>> preds_;
};

}  // namespace mcm
