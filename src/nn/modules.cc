#include "nn/modules.h"

#include <cmath>
#include <limits>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/logging.h"

namespace mcm {

Linear::Linear(std::string name, int in_dim, int out_dim, Rng& rng)
    : weight_(name + "/w", in_dim, out_dim), bias_(name + "/b", 1, out_dim) {
  InitXavier(weight_.value, in_dim, out_dim, rng);
}

VarId Linear::Forward(Tape& tape, VarId x) {
  const VarId w = tape.Parameter(&weight_.value, &weight_.grad);
  const VarId b = tape.Parameter(&bias_.value, &bias_.grad);
  return tape.AddRowBroadcast(tape.MatMulOp(x, w), b);
}

ParamRefs Linear::Params() { return {&weight_, &bias_}; }

GraphSageLayer::GraphSageLayer(std::string name, int in_dim, int out_dim,
                               Rng& rng)
    : w_self_(name + "/w_self", in_dim, out_dim),
      w_neigh_(name + "/w_neigh", in_dim, out_dim),
      bias_(name + "/b", 1, out_dim) {
  InitXavier(w_self_.value, in_dim, out_dim, rng);
  InitXavier(w_neigh_.value, in_dim, out_dim, rng);
}

VarId GraphSageLayer::Forward(Tape& tape, VarId h,
                              const NeighborLists* neighbors) {
  const VarId w_self =
      tape.Parameter(&w_self_.value, &w_self_.grad);
  const VarId w_neigh =
      tape.Parameter(&w_neigh_.value, &w_neigh_.grad);
  const VarId b = tape.Parameter(&bias_.value, &bias_.grad);
  const VarId self_term = tape.MatMulOp(h, w_self);
  const VarId neigh_term =
      tape.MatMulOp(tape.NeighborMeanOp(h, neighbors), w_neigh);
  const VarId pre =
      tape.AddRowBroadcast(tape.AddOp(self_term, neigh_term), b);
  return tape.L2NormalizeRowsOp(tape.ReluOp(pre));
}

ParamRefs GraphSageLayer::Params() { return {&w_self_, &w_neigh_, &bias_}; }

GraphSageNetwork::GraphSageNetwork(int input_dim, int hidden_dim,
                                   int num_layers, Rng& rng)
    : hidden_dim_(hidden_dim) {
  MCM_CHECK_GT(num_layers, 0);
  int in_dim = input_dim;
  for (int layer = 0; layer < num_layers; ++layer) {
    layers_.emplace_back("sage" + std::to_string(layer), in_dim, hidden_dim,
                         rng);
    in_dim = hidden_dim;
  }
}

VarId GraphSageNetwork::Forward(Tape& tape, VarId features,
                                const NeighborLists* neighbors) {
  VarId h = features;
  for (GraphSageLayer& layer : layers_) {
    h = layer.Forward(tape, h, neighbors);
  }
  return h;
}

ParamRefs GraphSageNetwork::Params() {
  ParamRefs refs;
  for (GraphSageLayer& layer : layers_) {
    for (Param* p : layer.Params()) refs.push_back(p);
  }
  return refs;
}

Mlp::Mlp(std::string name, const std::vector<int>& dims, Rng& rng) {
  MCM_CHECK_GE(dims.size(), 2u);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(name + "/fc" + std::to_string(i),
                         dims[i], dims[i + 1], rng);
  }
}

VarId Mlp::Forward(Tape& tape, VarId x) {
  VarId h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(tape, h);
    if (i + 1 < layers_.size()) h = tape.ReluOp(h);
  }
  return h;
}

ParamRefs Mlp::Params() {
  ParamRefs refs;
  for (Linear& layer : layers_) {
    for (Param* p : layer.Params()) refs.push_back(p);
  }
  return refs;
}

NeighborLists BuildNeighborLists(const Graph& graph) {
  NeighborLists lists;
  const int n = graph.NumNodes();
  lists.offsets.resize(static_cast<std::size_t>(n) + 1, 0);
  for (int u = 0; u < n; ++u) {
    lists.offsets[static_cast<std::size_t>(u) + 1] =
        lists.offsets[static_cast<std::size_t>(u)] + graph.InDegree(u) +
        graph.OutDegree(u);
  }
  lists.indices.resize(static_cast<std::size_t>(lists.offsets.back()));
  std::vector<int> cursor(lists.offsets.begin(), lists.offsets.end() - 1);
  for (int u = 0; u < n; ++u) {
    for (int p : graph.Predecessors(u)) {
      lists.indices[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = p;
    }
    for (int s : graph.Successors(u)) {
      lists.indices[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = s;
    }
  }
  lists.Finalize();
  return lists;
}

Adam::Adam(ParamRefs params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(p->value.rows, p->value.cols);
    v_.emplace_back(p->value.rows, p->value.cols);
  }
}

// MCM_CONTRACT(deterministic): the global-norm reduction and the update run
// serially in param order.
void Adam::Step() {
  ++step_;
  double scale = 1.0;
  if (options_.clip_global_norm > 0.0) {
    double sq = 0.0;
    for (const Param* p : params_) {
      for (float g : p->grad.data) sq += static_cast<double>(g) * g;
    }
    const double norm = std::sqrt(sq);
    if (norm > options_.clip_global_norm) {
      scale = options_.clip_global_norm / norm;
    }
  }
  const double bias1 = 1.0 - std::pow(options_.beta1, step_);
  const double bias2 = 1.0 - std::pow(options_.beta2, step_);
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param& p = *params_[k];
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    for (std::size_t i = 0; i < p.value.data.size(); ++i) {
      const double g = scale * p.grad.data[i];
      m.data[i] = static_cast<float>(options_.beta1 * m.data[i] +
                                     (1.0 - options_.beta1) * g);
      v.data[i] = static_cast<float>(options_.beta2 * v.data[i] +
                                     (1.0 - options_.beta2) * g * g);
      const double m_hat = m.data[i] / bias1;
      const double v_hat = v.data[i] / bias2;
      p.value.data[i] -= static_cast<float>(
          options_.lr * m_hat / (std::sqrt(v_hat) + options_.epsilon));
    }
  }
  ZeroGrad();
}

void Adam::ZeroGrad() {
  for (Param* p : params_) p->grad.Zero();
}

Adam::State Adam::GetState() const {
  State state;
  state.step = step_;
  state.m = m_;
  state.v = v_;
  return state;
}

void Adam::SetState(const State& state) {
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    throw std::runtime_error("Adam::SetState: moment count mismatch");
  }
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Param& p = *params_[k];
    if (state.m[k].rows != p.value.rows || state.m[k].cols != p.value.cols ||
        state.v[k].rows != p.value.rows || state.v[k].cols != p.value.cols) {
      throw std::runtime_error("Adam::SetState: moment shape mismatch for " +
                               p.name);
    }
  }
  step_ = state.step;
  m_ = state.m;
  v_ = state.v;
}

void SaveParams(const ParamRefs& params, std::ostream& os) {
  // max_digits10 guarantees exact float round-trips through text.
  os.precision(std::numeric_limits<float>::max_digits10);
  os << "mcm-checkpoint-v1 " << params.size() << "\n";
  for (const Param* p : params) {
    os << p->name << " " << p->value.rows << " " << p->value.cols << "\n";
    for (std::size_t i = 0; i < p->value.data.size(); ++i) {
      os << p->value.data[i] << (i + 1 == p->value.data.size() ? "\n" : " ");
    }
  }
}

void LoadParams(const ParamRefs& params, std::istream& is) {
  std::string magic;
  std::size_t count = 0;
  is >> magic >> count;
  if (magic != "mcm-checkpoint-v1" || count != params.size()) {
    throw std::runtime_error("LoadParams: bad header or parameter count");
  }
  for (Param* p : params) {
    std::string name;
    int rows = 0, cols = 0;
    is >> name >> rows >> cols;
    if (name != p->name || rows != p->value.rows || cols != p->value.cols) {
      throw std::runtime_error("LoadParams: mismatch for parameter " +
                               p->name);
    }
    for (float& x : p->value.data) {
      if (!(is >> x)) {
        throw std::runtime_error("LoadParams: truncated data for " + p->name);
      }
    }
  }
}

std::vector<Matrix> SnapshotParams(const ParamRefs& params) {
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const Param* p : params) snapshot.push_back(p->value);
  return snapshot;
}

void RestoreParams(const ParamRefs& params,
                   const std::vector<Matrix>& snapshot) {
  MCM_CHECK_EQ(params.size(), snapshot.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    MCM_CHECK(params[i]->value.SameShape(snapshot[i]));
    params[i]->value = snapshot[i];
  }
}

}  // namespace mcm
