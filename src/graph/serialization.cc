// Text serialization for Graph.
//
// Format (line oriented, '#' comments allowed):
//   graph <name-with-no-spaces-or-quoted>
//   nodes <N>
//   node <id> <op-int> <flops> <output_bytes> <param_bytes> <name...>
//   edges <M>
//   edge <src> <dst>
//   end
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/graph.h"

namespace mcm {
namespace {

[[noreturn]] void ParseError(const std::string& what, const std::string& line) {
  throw std::runtime_error("Graph::Deserialize: " + what + " at line: '" +
                           line + "'");
}

// Reads the next non-empty, non-comment line; returns false at EOF.
bool NextLine(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

}  // namespace

void Graph::Serialize(std::ostream& os) const {
  // Exact double round-trips through text.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "graph " << (name_.empty() ? "unnamed" : name_) << "\n";
  os << "nodes " << NumNodes() << "\n";
  for (const Node& n : nodes_) {
    os << "node " << n.id << " " << static_cast<int>(n.op) << " "
       << n.compute_flops << " " << n.output_bytes << " " << n.param_bytes
       << " " << (n.name.empty() ? "unnamed" : n.name) << "\n";
  }
  os << "edges " << NumEdges() << "\n";
  for (const Edge& e : edges_) {
    os << "edge " << e.src << " " << e.dst << "\n";
  }
  os << "end\n";
}

Graph Graph::Deserialize(std::istream& is) {
  std::string line;
  if (!NextLine(is, line)) ParseError("empty input", "");
  std::istringstream header(line);
  std::string keyword, name;
  header >> keyword >> name;
  if (keyword != "graph") ParseError("expected 'graph'", line);
  Graph g(name);

  if (!NextLine(is, line)) ParseError("missing 'nodes'", "");
  std::istringstream nodes_hdr(line);
  int num_nodes = -1;
  nodes_hdr >> keyword >> num_nodes;
  if (keyword != "nodes" || num_nodes < 0) ParseError("expected 'nodes N'", line);
  if (num_nodes > kMaxGraphNodes) ParseError("too many nodes", line);

  for (int i = 0; i < num_nodes; ++i) {
    if (!NextLine(is, line)) ParseError("truncated node list", "");
    std::istringstream node_line(line);
    int id = -1, op_int = -1;
    double flops = 0.0, out_bytes = 0.0, param_bytes = 0.0;
    std::string node_name;
    // A failed numeric read (garbage, or a value out of double range)
    // leaves the stream failed; reject it rather than keep a clamped value.
    node_line >> keyword >> id >> op_int >> flops >> out_bytes >> param_bytes;
    if (!node_line || keyword != "node" || id != i) {
      ParseError("bad node record", line);
    }
    node_line >> node_name;
    if (op_int < 0 || op_int >= kNumOpTypes) ParseError("bad op type", line);
    g.AddNode(static_cast<OpType>(op_int), node_name, flops, out_bytes,
              param_bytes);
  }

  if (!NextLine(is, line)) ParseError("missing 'edges'", "");
  std::istringstream edges_hdr(line);
  int num_edges = -1;
  edges_hdr >> keyword >> num_edges;
  if (keyword != "edges" || num_edges < 0) ParseError("expected 'edges M'", line);
  if (num_edges > kMaxGraphEdges) ParseError("too many edges", line);

  for (int i = 0; i < num_edges; ++i) {
    if (!NextLine(is, line)) ParseError("truncated edge list", "");
    std::istringstream edge_line(line);
    int src = -1, dst = -1;
    edge_line >> keyword >> src >> dst;
    if (!edge_line || keyword != "edge" || src < 0 || dst < 0 ||
        src >= num_nodes || dst >= num_nodes) {
      ParseError("bad edge record", line);
    }
    if (src == dst) ParseError("self-edge", line);
    g.AddEdge(src, dst);
  }

  if (!NextLine(is, line) || line.rfind("end", 0) != 0) {
    ParseError("missing 'end'", line);
  }
  const std::string problem = g.Validate();
  if (!problem.empty()) {
    throw std::runtime_error("Graph::Deserialize: " + problem);
  }
  return g;
}

}  // namespace mcm
