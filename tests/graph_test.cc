// Tests for the graph substrate: structure, analyses, serialization, node
// features, and the model generators (including the corpus and BERT).
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "graph/features.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace mcm {
namespace {

Graph Diamond() {
  Graph g("diamond");
  const int a = g.AddNode(OpType::kInput, "a", 1.0, 10.0);
  const int b = g.AddNode(OpType::kRelu, "b", 2.0, 20.0);
  const int c = g.AddNode(OpType::kTanh, "c", 3.0, 30.0);
  const int d = g.AddNode(OpType::kOutput, "d", 4.0, 40.0);
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  g.AddEdge(b, d);
  g.AddEdge(c, d);
  return g;
}

TEST(GraphTest, BasicStructure) {
  const Graph g = Diamond();
  EXPECT_EQ(g.NumNodes(), 4);
  EXPECT_EQ(g.NumEdges(), 4);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.InDegree(3), 2);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_DOUBLE_EQ(g.TotalFlops(), 10.0);
  EXPECT_DOUBLE_EQ(g.TotalOutputBytes(), 100.0);
}

TEST(GraphTest, DuplicateEdgesIgnored) {
  Graph g("dup");
  g.AddNode(OpType::kInput, "a", 0, 0);
  g.AddNode(OpType::kOutput, "b", 0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(GraphTest, TopologicalOrderRespectsEdges) {
  const Graph g = Diamond();
  const std::vector<int> order = g.TopologicalOrder();
  std::vector<int> position(4);
  for (int i = 0; i < 4; ++i) position[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;
  for (const Edge& e : g.edges()) {
    EXPECT_LT(position[static_cast<size_t>(e.src)], position[static_cast<size_t>(e.dst)]);
  }
}

TEST(GraphTest, DepthsAndCriticalPath) {
  const Graph g = Diamond();
  const std::vector<int> depths = g.Depths();
  EXPECT_EQ(depths[0], 0);
  EXPECT_EQ(depths[1], 1);
  EXPECT_EQ(depths[2], 1);
  EXPECT_EQ(depths[3], 2);
  EXPECT_EQ(g.CriticalPathLength(), 2);
}

TEST(GraphTest, AcyclicityDetection) {
  Graph g("cycle");
  g.AddNode(OpType::kInput, "a", 0, 0);
  g.AddNode(OpType::kRelu, "b", 0, 0);
  g.AddNode(OpType::kRelu, "c", 0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.IsAcyclic());
  g.AddEdge(2, 1);  // Creates the cycle b -> c -> b.
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_NE(g.Validate(), "");
}

TEST(GraphTest, ValidateAcceptsHealthyGraph) {
  EXPECT_EQ(Diamond().Validate(), "");
}

TEST(GraphTest, SerializationRoundtrip) {
  const Graph g = Diamond();
  std::stringstream buffer;
  g.Serialize(buffer);
  const Graph loaded = Graph::Deserialize(buffer);
  EXPECT_EQ(loaded.name(), g.name());
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  for (int u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(loaded.node(u).op, g.node(u).op);
    EXPECT_DOUBLE_EQ(loaded.node(u).compute_flops, g.node(u).compute_flops);
    EXPECT_DOUBLE_EQ(loaded.node(u).output_bytes, g.node(u).output_bytes);
  }
  for (int u = 0; u < g.NumNodes(); ++u) {
    ASSERT_EQ(loaded.OutDegree(u), g.OutDegree(u));
  }
}

TEST(GraphTest, DeserializeRejectsGarbage) {
  std::stringstream bad("not a graph at all");
  EXPECT_THROW(Graph::Deserialize(bad), std::runtime_error);
  std::stringstream truncated("graph g\nnodes 2\nnode 0 0 1 1 1 a\n");
  EXPECT_THROW(Graph::Deserialize(truncated), std::runtime_error);
}

TEST(GraphTest, ValidateRejectsNonFiniteCosts) {
  Graph g = Diamond();
  g.mutable_node(2).compute_flops = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(g.Validate(), "");
  g = Diamond();
  g.mutable_node(1).param_bytes = std::numeric_limits<double>::infinity();
  EXPECT_NE(g.Validate(), "");
}

TEST(GraphTest, DeserializeRejectsHostileGraphs) {
  // A self-edge must throw before AddEdge's check aborts the process.
  std::stringstream self_edge(
      "graph g\nnodes 1\nnode 0 0 1 1 1 a\nedges 1\nedge 0 0\nend\n");
  EXPECT_THROW(Graph::Deserialize(self_edge), std::runtime_error);
  // A cycle parses but fails Validate(); the solver assumes acyclicity.
  std::stringstream cycle(
      "graph g\nnodes 2\nnode 0 0 1 1 1 a\nnode 1 0 1 1 1 b\n"
      "edges 2\nedge 0 1\nedge 1 0\nend\n");
  EXPECT_THROW(Graph::Deserialize(cycle), std::runtime_error);
  // A cost outside double range is a parse error, not a clamped value.
  std::stringstream huge(
      "graph g\nnodes 1\nnode 0 0 1e999 1 1 a\nedges 0\nend\n");
  EXPECT_THROW(Graph::Deserialize(huge), std::runtime_error);
  std::stringstream negative(
      "graph g\nnodes 1\nnode 0 0 -5 1 1 a\nedges 0\nend\n");
  EXPECT_THROW(Graph::Deserialize(negative), std::runtime_error);
  // Over-cap counts are refused at their header, before any record is read.
  const auto error_of = [](const std::string& text) -> std::string {
    std::stringstream in(text);
    try {
      Graph::Deserialize(in);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of("graph g\nnodes " + std::to_string(kMaxGraphNodes + 1) +
                     "\n")
                .find("too many nodes"),
            std::string::npos);
  EXPECT_NE(error_of("graph g\nnodes 1\nnode 0 0 1 1 1 a\nedges " +
                     std::to_string(kMaxGraphEdges + 1) + "\n")
                .find("too many edges"),
            std::string::npos);
}

TEST(GraphTest, DotOutputMentionsAllNodes) {
  const Graph g = Diamond();
  std::stringstream dot;
  g.WriteDot(dot);
  const std::string s = dot.str();
  EXPECT_NE(s.find("digraph"), std::string::npos);
  EXPECT_NE(s.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(s.find("n2 -> n3"), std::string::npos);
}

// ---- Generators ------------------------------------------------------------

TEST(GeneratorsTest, MlpIsChainShaped) {
  const Graph g = MakeMlp("m", 128, {256, 128}, 10);
  EXPECT_EQ(g.Validate(), "");
  // A pure MLP has max in/out degree 1 (a chain).
  for (int u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(g.InDegree(u), 1);
    EXPECT_LE(g.OutDegree(u), 1);
  }
  EXPECT_GT(g.TotalParamBytes(), 0.0);
}

TEST(GeneratorsTest, ResNetHasSkipConnections) {
  const Graph g = MakeResNet("r", ResNetConfig{});
  EXPECT_EQ(g.Validate(), "");
  int max_in = 0;
  for (int u = 0; u < g.NumNodes(); ++u) max_in = std::max(max_in, g.InDegree(u));
  EXPECT_GE(max_in, 2);  // Residual adds have two inputs.
}

TEST(GeneratorsTest, InceptionHasBranches) {
  const Graph g = MakeInception("i", InceptionConfig{});
  EXPECT_EQ(g.Validate(), "");
  int max_in = 0;
  for (int u = 0; u < g.NumNodes(); ++u) max_in = std::max(max_in, g.InDegree(u));
  EXPECT_GE(max_in, 4);  // Concat joins four branches.
}

TEST(GeneratorsTest, RecurrentModelsScaleWithTimeSteps) {
  const Graph short_rnn = MakeRnn("r8", 8, 64, 128, 10);
  const Graph long_rnn = MakeRnn("r16", 16, 64, 128, 10);
  EXPECT_EQ(short_rnn.Validate(), "");
  EXPECT_GT(long_rnn.NumNodes(), short_rnn.NumNodes());
  const Graph lstm = MakeLstm("l", 6, 64, 128, 10);
  EXPECT_EQ(lstm.Validate(), "");
  EXPECT_GT(lstm.NumNodes(), MakeRnn("r6", 6, 64, 128, 10).NumNodes());
  const Graph s2s = MakeSeq2Seq("s", 5, 5, 64, 128, 500);
  EXPECT_EQ(s2s.Validate(), "");
}

TEST(GeneratorsTest, BertMatchesPaperScale) {
  const Graph bert = MakeBert();
  EXPECT_EQ(bert.Validate(), "");
  // Section 5.1: BERT has 2138 nodes and ~340M parameters (~600 MB).
  EXPECT_EQ(bert.NumNodes(), 2138);
  const double params = bert.TotalParamBytes() / kWeightBytesPerValue;
  EXPECT_GT(params, 320e6);
  EXPECT_LT(params, 350e6);
  EXPECT_GT(bert.TotalParamBytes(), 550e6);
  EXPECT_LT(bert.TotalParamBytes(), 650e6);
}

TEST(GeneratorsTest, BertHasAttentionFanOut) {
  const Graph bert = MakeBert();
  // Each q/k/v reshape feeds all 16 heads.
  int max_out = 0;
  for (int u = 0; u < bert.NumNodes(); ++u) {
    max_out = std::max(max_out, bert.OutDegree(u));
  }
  EXPECT_GE(max_out, 16);
}

TEST(GeneratorsTest, CorpusMatchesPaperShape) {
  const std::vector<Graph> corpus = MakeCorpus();
  // Section 5.1: 87 models, tens to hundreds of nodes, no attention.
  ASSERT_EQ(corpus.size(), 87u);
  for (const Graph& g : corpus) {
    EXPECT_EQ(g.Validate(), "") << g.name();
    EXPECT_GE(g.NumNodes(), 10) << g.name();
    EXPECT_LE(g.NumNodes(), 999) << g.name();
    EXPECT_GT(g.TotalFlops(), 0.0) << g.name();
  }
}

TEST(GeneratorsTest, CorpusIsDeterministic) {
  const std::vector<Graph> a = MakeCorpus(87);
  const std::vector<Graph> b = MakeCorpus(87);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name(), b[i].name());
    EXPECT_EQ(a[i].NumNodes(), b[i].NumNodes());
    EXPECT_EQ(a[i].NumEdges(), b[i].NumEdges());
  }
}

TEST(GeneratorsTest, SplitIs66_5_16) {
  DatasetSplit split = SplitCorpus(MakeCorpus());
  EXPECT_EQ(split.train.size(), 66u);
  EXPECT_EQ(split.validation.size(), 5u);
  EXPECT_EQ(split.test.size(), 16u);
}

TEST(GeneratorsTest, SplitIsAPartition) {
  DatasetSplit split = SplitCorpus(MakeCorpus());
  std::vector<std::string> names;
  for (const auto& g : split.train) names.push_back(g.name());
  for (const auto& g : split.validation) names.push_back(g.name());
  for (const auto& g : split.test) names.push_back(g.name());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), 87u);
}

// ---- Features ---------------------------------------------------------------

TEST(FeaturesTest, DimensionsAndRanges) {
  const Graph g = Diamond();
  const std::vector<float> features = ExtractNodeFeatures(g);
  ASSERT_EQ(features.size(),
            static_cast<std::size_t>(g.NumNodes()) * kNodeFeatureDim);
  for (float f : features) {
    EXPECT_GE(f, 0.0f);
    EXPECT_LE(f, 1.0f);
  }
}

TEST(FeaturesTest, OneHotIsExclusive) {
  const Graph g = Diamond();
  const std::vector<float> features = ExtractNodeFeatures(g);
  for (int u = 0; u < g.NumNodes(); ++u) {
    int ones = 0;
    for (int j = 0; j < kNumOpTypes; ++j) {
      if (features[static_cast<std::size_t>(u) * kNodeFeatureDim + j] == 1.0f) {
        ++ones;
      }
    }
    EXPECT_EQ(ones, 1);
  }
}

TEST(FeaturesTest, DepthFractionIncreasesAlongChain) {
  const Graph g = MakeMlp("m", 32, {32, 32, 32}, 4);
  const std::vector<float> features = ExtractNodeFeatures(g);
  const std::vector<int> order = g.TopologicalOrder();
  const int depth_idx = kNumOpTypes + 5;
  float prev = -1.0f;
  for (int u : order) {
    const float depth =
        features[static_cast<std::size_t>(u) * kNodeFeatureDim + depth_idx];
    EXPECT_GE(depth, prev);
    prev = depth;
  }
}

}  // namespace
}  // namespace mcm
