#include "graph/measures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/families.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "graph/mst.h"

namespace csca {
namespace {

TEST(Measures, PathGraphParameters) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(3), rng);
  const auto m = measure(g);
  EXPECT_EQ(m.n, 5);
  EXPECT_EQ(m.m, 4);
  EXPECT_EQ(m.comm_E, 12);
  EXPECT_EQ(m.comm_V, 12);  // the path is its own MST
  EXPECT_EQ(m.comm_D, 12);
  EXPECT_EQ(m.d, 3);  // neighbors are at exactly one edge
  EXPECT_EQ(m.W, 3);
}

TEST(Measures, HeavyEdgeBypassedByLightPath) {
  // Triangle where the heavy edge's endpoints are close via the light
  // path: d < W, the regime §1.4.2 calls interesting.
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 100);
  const auto m = measure(g);
  EXPECT_EQ(m.W, 100);
  EXPECT_EQ(m.d, 4);       // dist(0,2) = 4 via node 1
  EXPECT_EQ(m.comm_D, 4);  // diameter realized by the same pair
  EXPECT_EQ(m.comm_V, 4);
  EXPECT_EQ(m.comm_E, 104);
}

TEST(Measures, DisconnectedRejected) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(measure(g), PreconditionError);
  EXPECT_THROW(weighted_diameter(g), PreconditionError);
  EXPECT_THROW(max_neighbor_distance(g), PreconditionError);
}

TEST(Measures, OrderingInvariants) {
  // For any connected graph: D <= V <= E (Fact 6.3 gives Diam(MST) <= V
  // and trivially D <= Diam(MST); MST is a subgraph so V <= E) and
  // d <= min(W, D).
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = connected_gnp(20, 0.2, WeightSpec::uniform(1, 50), rng);
    const auto m = measure(g);
    EXPECT_LE(m.comm_D, m.comm_V);
    EXPECT_LE(m.comm_V, m.comm_E);
    EXPECT_LE(m.d, m.W);
    EXPECT_LE(m.d, m.comm_D);
    EXPECT_LE(m.comm_D, static_cast<Weight>(m.n - 1) * m.W);
  }
}

TEST(Measures, Fact63MstDiameterAtMostNMinusOneTimesD) {
  // Fact 6.3: Diam(MST) <= V <= (n-1) * D.
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = connected_gnp(18, 0.25, WeightSpec::uniform(1, 30), rng);
    const auto m = measure(g);
    const auto t = mst_tree(g, 0);
    EXPECT_LE(t.diameter(g), m.comm_V);
    EXPECT_LE(m.comm_V, static_cast<Weight>(m.n - 1) * m.comm_D);
  }
}

TEST(Measures, Fact65SptWeightAtMostNMinusOneTimesV) {
  // Fact 6.5: w(T_S) <= (n - 1) * V for every source, with the
  // spt_heavy family coming within a constant of saturating it.
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = connected_gnp(16, 0.3, WeightSpec::uniform(1, 40), rng);
    const Weight v = mst_weight(g);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const auto spt = dijkstra(g, s).tree(g);
      EXPECT_LE(spt.weight(g),
                static_cast<Weight>(g.node_count() - 1) * v);
    }
  }
  Graph tight = spt_heavy_family(24);
  const auto spt = dijkstra(tight, 0).tree(tight);
  EXPECT_GE(spt.weight(tight),
            static_cast<Weight>(tight.node_count()) *
                mst_weight(tight) / 8);
}

TEST(Measures, WeightedRadiusAtCenterOfPath) {
  Rng rng(4);
  Graph g = path_graph(5, WeightSpec::constant(2), rng);
  EXPECT_EQ(weighted_radius(g, 2), 4);
  EXPECT_EQ(weighted_radius(g, 0), 8);
}

TEST(Measures, LowerBoundFamilyMeasures) {
  const int n = 9;
  const Weight x = 10;
  Graph g = lower_bound_family(n, x);
  const auto m = measure(g);
  EXPECT_EQ(m.comm_V, static_cast<Weight>(n - 1) * x);  // MST = the path
  // Bypass edges dominate total weight.
  EXPECT_GT(m.comm_E, m.comm_V * 100);
  // Diameter is along the path: (n-1) * X.
  EXPECT_EQ(m.comm_D, static_cast<Weight>(n - 1) * x);
}

// measure() runs its n single-source passes over one reused scratch;
// comm_D and d must equal what per-source dijkstra() gives, on every
// sweep graph and on every family at a larger size.
Weight reference_diameter(const Graph& g, Weight* d) {
  Weight diam = 0;
  *d = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto sp = dijkstra(g, v);
    for (const Weight du : sp.dist) diam = std::max(diam, du);
    for (const Arc a : g.neighbors(v)) {
      *d = std::max(*d, sp.dist[static_cast<std::size_t>(a.node)]);
    }
  }
  return diam;
}

TEST(Measures, SweepMatchesPerSourceDijkstraOnEveryFamily) {
  std::vector<GraphFamily> graphs = builtin_families(/*smoke=*/true);
  for (GraphFamily& f : builtin_families(/*smoke=*/false)) {
    graphs.push_back(std::move(f));
  }
  for (const std::string& name : family_names()) {
    graphs.push_back({name + "@33", make_family(name, 33, 7)});
  }
  for (const GraphFamily& f : graphs) {
    Weight d = 0;
    const Weight diam = reference_diameter(f.graph, &d);
    const auto m = measure(f.graph);
    EXPECT_EQ(m.comm_D, diam) << f.name;
    EXPECT_EQ(m.d, d) << f.name;
    EXPECT_EQ(weighted_diameter(f.graph), diam) << f.name;
    EXPECT_EQ(max_neighbor_distance(f.graph), d) << f.name;
  }
}

}  // namespace
}  // namespace csca
