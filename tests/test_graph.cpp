// Tests for the graph library: structure, generators, max-cut solvers.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/maxcut.hpp"

namespace {

using namespace qarch;
using graph::Graph;

TEST(Graph, BasicConstruction) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2, 2.5);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_DOUBLE_EQ(g.total_weight(), 3.5);
}

TEST(Graph, RejectsInvalidEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0), Error);   // self-loop
  EXPECT_THROW(g.add_edge(0, 5), Error);   // out of range
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), Error);   // duplicate
}

TEST(Graph, CutValueCountsCrossingEdges) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  // Alternating assignment cuts all 4 edges of the 4-cycle.
  EXPECT_DOUBLE_EQ(g.cut_value({1, -1, 1, -1}), 4.0);
  EXPECT_DOUBLE_EQ(g.cut_value({1, 1, 1, 1}), 0.0);
  EXPECT_THROW((void)g.cut_value({1, 1}), Error);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
}

TEST(Generators, ErdosRenyiEdgeCountMatchesProbability) {
  Rng rng(17);
  const std::size_t n = 40;
  const double p = 0.3;
  double total_edges = 0.0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i)
    total_edges += static_cast<double>(graph::erdos_renyi(n, p, rng).num_edges());
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total_edges / reps, expected, expected * 0.15);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(1);
  EXPECT_EQ(graph::erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(graph::erdos_renyi(10, 1.0, rng).num_edges(), 45u);
  EXPECT_THROW(graph::erdos_renyi(10, 1.5, rng), Error);
}

TEST(Generators, ConnectedVariantIsConnected) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(graph::erdos_renyi_connected(10, 0.4, rng).is_connected());
}

TEST(Generators, RandomRegularHasExactDegrees) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_regular(10, 4, rng);
    EXPECT_EQ(g.num_edges(), 20u);
    for (std::size_t v = 0; v < 10; ++v) EXPECT_EQ(g.degree(v), 4u);
  }
}

TEST(Generators, RandomRegularRejectsInfeasible) {
  Rng rng(1);
  EXPECT_THROW(graph::random_regular(5, 3, rng), Error);   // odd n*d
  EXPECT_THROW(graph::random_regular(4, 4, rng), Error);   // d >= n
}

TEST(Generators, DatasetsHaveRequestedShape) {
  Rng rng(3);
  const auto er = graph::er_dataset(5, 10, 0.3, 0.7, rng);
  EXPECT_EQ(er.size(), 5u);
  for (const auto& g : er) {
    EXPECT_EQ(g.num_vertices(), 10u);
    EXPECT_TRUE(g.is_connected());
  }
  const auto reg = graph::regular_dataset(5, 10, 4, rng);
  EXPECT_EQ(reg.size(), 5u);
  for (const auto& g : reg) EXPECT_EQ(g.num_edges(), 20u);
}

TEST(MaxCut, ExactOnKnownGraphs) {
  // Triangle: best cut = 2.
  Graph tri(3);
  tri.add_edge(0, 1);
  tri.add_edge(1, 2);
  tri.add_edge(0, 2);
  EXPECT_DOUBLE_EQ(graph::maxcut_exact(tri).value, 2.0);

  // Even cycle: all edges cut.
  Graph c4(4);
  c4.add_edge(0, 1);
  c4.add_edge(1, 2);
  c4.add_edge(2, 3);
  c4.add_edge(3, 0);
  EXPECT_DOUBLE_EQ(graph::maxcut_exact(c4).value, 4.0);

  // Complete bipartite K23 is fully cuttable: 6 edges.
  Graph k23(5);
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t b = 2; b < 5; ++b) k23.add_edge(a, b);
  EXPECT_DOUBLE_EQ(graph::maxcut_exact(k23).value, 6.0);
}

TEST(MaxCut, ExactWitnessIsConsistent) {
  Rng rng(41);
  for (int t = 0; t < 5; ++t) {
    const Graph g = graph::erdos_renyi_connected(9, 0.4, rng);
    const auto r = graph::maxcut_exact(g);
    EXPECT_DOUBLE_EQ(g.cut_value(r.assignment), r.value);
  }
}

TEST(MaxCut, WeightedEdgesRespected) {
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 1.0);
  // Best: separate the heavy edge; cut = 10 + 1 = 11.
  EXPECT_DOUBLE_EQ(graph::maxcut_exact(g).value, 11.0);
}

TEST(MaxCut, HeuristicsNeverBeatExactAndAreConsistent) {
  Rng rng(51);
  for (int t = 0; t < 8; ++t) {
    const Graph g = graph::erdos_renyi_connected(10, 0.5, rng);
    const double exact = graph::maxcut_exact(g).value;
    const auto greedy = graph::maxcut_greedy(g);
    const auto local = graph::maxcut_local_search(g);
    Rng ms_rng(t);
    const auto multi = graph::maxcut_multistart(g, 20, ms_rng);
    EXPECT_LE(greedy.value, exact);
    EXPECT_LE(local.value, exact);
    EXPECT_LE(multi.value, exact);
    EXPECT_GE(local.value, greedy.value);   // local search starts from greedy
    EXPECT_DOUBLE_EQ(g.cut_value(multi.assignment), multi.value);
    // Multi-start local search is near-exact at this size.
    EXPECT_GE(multi.value, 0.9 * exact);
  }
}

TEST(MaxCut, LocalSearchIsOneFlipOptimal) {
  Rng rng(61);
  const Graph g = graph::erdos_renyi_connected(10, 0.5, rng);
  auto r = graph::maxcut_local_search(g);
  for (std::size_t v = 0; v < g.num_vertices(); ++v) {
    auto z = r.assignment;
    z[v] = -z[v];
    EXPECT_LE(g.cut_value(z), r.value);
  }
}

}  // namespace
