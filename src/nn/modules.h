// Neural-network building blocks: parameters, linear layers, GraphSAGE, and
// multi-layer perceptrons, plus the Adam optimizer and checkpoint I/O.
//
// Modules own their parameters (value + gradient accumulator) and expose a
// `Params()` view used by the optimizer and the checkpoint code.  Forward
// passes record onto a caller-provided Tape.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "nn/tape.h"

namespace mcm {

// A trainable tensor: value plus gradient accumulator.
struct Param {
  std::string name;
  Matrix value;
  Matrix grad;

  Param(std::string n, int rows, int cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}
};

using ParamRefs = std::vector<Param*>;

// y = x W + b.
class Linear {
 public:
  Linear(std::string name, int in_dim, int out_dim, Rng& rng);

  VarId Forward(Tape& tape, VarId x);
  ParamRefs Params();

  int in_dim() const { return weight_.value.rows; }
  int out_dim() const { return weight_.value.cols; }

 private:
  Param weight_;
  Param bias_;
};

// One GraphSAGE layer with the mean aggregator (Hamilton et al., 2017):
//   h'_v = act( W_self h_v + W_neigh mean_{u in N(v)} h_u + b ), then row
// L2-normalization.  N(v) is the union of predecessors and successors
// (dataflow direction carries no locality meaning for placement quality).
class GraphSageLayer {
 public:
  GraphSageLayer(std::string name, int in_dim, int out_dim, Rng& rng);

  VarId Forward(Tape& tape, VarId h, const NeighborLists* neighbors);
  ParamRefs Params();

 private:
  Param w_self_;
  Param w_neigh_;
  Param bias_;
};

// A stack of GraphSAGE layers: the paper's feature network (default 8
// layers of width 128; benches use smaller settings via RlConfig).
class GraphSageNetwork {
 public:
  GraphSageNetwork(int input_dim, int hidden_dim, int num_layers, Rng& rng);

  VarId Forward(Tape& tape, VarId features,
                const NeighborLists* neighbors);
  ParamRefs Params();

  int hidden_dim() const { return hidden_dim_; }

 private:
  int hidden_dim_;
  std::vector<GraphSageLayer> layers_;
};

// Feed-forward network with ReLU between layers, none after the last.
class Mlp {
 public:
  Mlp(std::string name, const std::vector<int>& dims, Rng& rng);

  // Forward(tape, x) runs every layer on x.  With `resume` = k > 0, x is
  // layer k-1's output before its ReLU, and layers [k, end) run on it.
  VarId Forward(Tape& tape, VarId x, std::size_t resume = 0);
  ParamRefs Params();

 private:
  std::vector<Linear> layers_;
};

// Builds the undirected neighbor lists (preds + succs) for a graph, in the
// CSR form NeighborMeanOp consumes.
NeighborLists BuildNeighborLists(const Graph& graph);

// Adam with optional gradient clipping by global norm.
class Adam {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
    double clip_global_norm = 5.0;  // <= 0 disables.
  };

  explicit Adam(ParamRefs params) : Adam(std::move(params), Options{}) {}
  Adam(ParamRefs params, Options options);

  // Applies one update from the accumulated gradients, then zeroes them.
  void Step();
  void ZeroGrad();

  std::int64_t steps() const { return step_; }

  // Full optimizer state, for checkpoint/resume.  Restoring a saved state
  // (with the same parameter set) continues the moment estimates and bias
  // correction exactly where they left off, which the bit-identical resume
  // contract requires.  SetState validates moment shapes against the
  // current parameters and throws std::runtime_error on mismatch.
  struct State {
    std::int64_t step = 0;
    std::vector<Matrix> m;
    std::vector<Matrix> v;
  };
  State GetState() const;
  void SetState(const State& state);

 private:
  ParamRefs params_;
  Options options_;
  std::int64_t step_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

// Checkpointing: serializes parameter values (by name) to a stream.
// Throws std::runtime_error on malformed input or mismatched shapes.
void SaveParams(const ParamRefs& params, std::ostream& os);
void LoadParams(const ParamRefs& params, std::istream& is);
// Copies values between identically-shaped parameter sets (e.g. restoring
// a snapshot held in memory).
std::vector<Matrix> SnapshotParams(const ParamRefs& params);
void RestoreParams(const ParamRefs& params,
                   const std::vector<Matrix>& snapshot);

}  // namespace mcm
