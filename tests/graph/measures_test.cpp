#include "graph/measures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/families.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "graph/mst.h"

namespace csca {
namespace {

// All-pairs distances by Floyd-Warshall: an oracle for measure() that
// shares no code with its sweep (nor with dijkstra()).
struct AllPairs {
  std::vector<std::vector<Weight>> dist;

  explicit AllPairs(const Graph& g) {
    const auto n = static_cast<std::size_t>(g.node_count());
    const Weight inf = std::numeric_limits<Weight>::max() / 4;
    dist.assign(n, std::vector<Weight>(n, inf));
    for (std::size_t v = 0; v < n; ++v) dist[v][v] = 0;
    for (const Edge& e : g.edges()) {
      const auto u = static_cast<std::size_t>(e.u);
      const auto v = static_cast<std::size_t>(e.v);
      dist[u][v] = dist[v][u] = std::min(dist[u][v], e.w);
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
        }
      }
    }
  }

  // Rad(v, G) = max_u dist(v, u).
  Weight eccentricity(NodeId v) const {
    const auto& row = dist[static_cast<std::size_t>(v)];
    return *std::max_element(row.begin(), row.end());
  }

  Weight diameter() const {
    Weight diam = 0;
    for (std::size_t v = 0; v < dist.size(); ++v) {
      diam = std::max(diam, eccentricity(static_cast<NodeId>(v)));
    }
    return diam;
  }

  // d = max over edges (u, v) of dist(u, v).
  Weight max_neighbor_distance(const Graph& g) const {
    Weight d = 0;
    for (const Edge& e : g.edges()) {
      d = std::max(d, dist[static_cast<std::size_t>(e.u)]
                          [static_cast<std::size_t>(e.v)]);
    }
    return d;
  }
};

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
  const AllPairs ap(g);
  EXPECT_EQ(ap.eccentricity(2), 4);
  EXPECT_EQ(ap.eccentricity(0), 8);
  EXPECT_EQ(measure(g).comm_D, 8);
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

// comm_D and d from measure()'s sweep must equal the Floyd-Warshall
// oracle on every sweep graph, on every family at a larger size, on a
// geometric graph above n = 256 and on heavy chords with a large W.
TEST(Measures, SweepMatchesFloydWarshallOnEveryFamily) {
  std::vector<GraphFamily> graphs = builtin_families(/*smoke=*/true);
  for (GraphFamily& f : builtin_families(/*smoke=*/false)) {
    graphs.push_back(std::move(f));
  }
  for (const std::string& name : family_names()) {
    graphs.push_back({name + "@33", make_family(name, 33, 7)});
  }
  Rng rng(5);
  graphs.push_back({"geometric300", random_geometric(300, 0.12, 200, rng)});
  graphs.push_back(
      {"heavy_chords_2^40", heavy_chords_graph(64, Weight{1} << 40)});
  for (const GraphFamily& f : graphs) {
    const AllPairs ap(f.graph);
    const auto m = measure(f.graph);
    EXPECT_EQ(m.comm_D, ap.diameter()) << f.name;
    EXPECT_EQ(m.d, ap.max_neighbor_distance(f.graph)) << f.name;
  }
}

}  // namespace
}  // namespace csca
