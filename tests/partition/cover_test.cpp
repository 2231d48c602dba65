#include "partition/cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"
#include "reference_graphs.h"

namespace csca {
namespace {

TEST(Cluster, ValidityChecks) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(1), rng);
  EXPECT_TRUE(is_cluster(g, {0, 1, 2}));
  EXPECT_TRUE(is_cluster(g, {3}));
  EXPECT_FALSE(is_cluster(g, {}));              // empty
  EXPECT_FALSE(is_cluster(g, {0, 2}));          // disconnected
  EXPECT_FALSE(is_cluster(g, {1, 0}));          // unsorted
  EXPECT_FALSE(is_cluster(g, {0, 0, 1}));       // duplicate
  EXPECT_FALSE(is_cluster(g, {0, 5}));          // out of range
}

TEST(Cluster, RadiusAndCenterOnPath) {
  Rng rng(2);
  Graph g = path_graph(5, WeightSpec::constant(2), rng);
  // Cluster = whole path: center is node 2, radius 4.
  EXPECT_EQ(cluster_radius(g, {0, 1, 2, 3, 4}), 4);
  EXPECT_EQ(cluster_center(g, {0, 1, 2, 3, 4}), 2);
  EXPECT_EQ(cluster_radius(g, {3}), 0);
}

TEST(Cluster, RadiusUsesInducedSubgraphOnly) {
  // Square 0-1-2-3-0; cluster {0,1,2} may not shortcut through node 3.
  Graph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(3, 0, 1);
  EXPECT_EQ(cluster_radius(g, {0, 1, 2}), 1);  // center 1
  EXPECT_EQ(cluster_center(g, {0, 1, 2}), 1);
}

TEST(Cover, SingletonCoverProperties) {
  Rng rng(3);
  Graph g = connected_gnp(10, 0.3, WeightSpec::uniform(1, 5), rng);
  const Cover s = singleton_cover(g);
  EXPECT_TRUE(is_cover(g, s));
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(cover_radius(g, s), 0);
  EXPECT_EQ(cover_max_degree(g, s), 1);
}

TEST(Cover, IsCoverRejectsPartialCoverage) {
  Rng rng(4);
  Graph g = path_graph(4, WeightSpec::constant(1), rng);
  Cover c;
  c.clusters = {{0, 1}, {1, 2}};
  EXPECT_FALSE(is_cover(g, c));  // node 3 uncovered
  c.clusters.push_back({3});
  EXPECT_TRUE(is_cover(g, c));
}

TEST(Cover, SubsumesChecksContainment) {
  Cover s;
  s.clusters = {{0, 1}, {2, 3}};
  Cover t1;
  t1.clusters = {{0, 1, 2, 3}};
  Cover t2;
  t2.clusters = {{0, 1}, {2}};
  EXPECT_TRUE(subsumes(t1, s));
  EXPECT_FALSE(subsumes(t2, s));
  EXPECT_TRUE(subsumes(s, s));
}

TEST(Cover, NeighborhoodPathCoverOnTriangleWithHeavyEdge) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 100);
  const Cover c = neighborhood_path_cover(g);
  ASSERT_EQ(c.size(), 3);
  // Path(0, 2) goes through node 1 (the light route).
  EXPECT_EQ(c.clusters[2], (Cluster{0, 1, 2}));
  EXPECT_TRUE(is_cover(g, c));
}

TEST(Coarsen, KOneMergesEverythingConnected) {
  Rng rng(5);
  Graph g = connected_gnp(12, 0.25, WeightSpec::uniform(1, 6), rng);
  // k = 1: threshold |S|, no growth round may exceed it, but the bound
  // (2k-1) Rad(S) = Rad(S) must still hold -> output is essentially the
  // input (each output cluster is one input cluster).
  const Cover s = neighborhood_path_cover(g);
  const Cover t = coarsen(g, s, 1);
  EXPECT_TRUE(subsumes(t, s));
  EXPECT_LE(cover_radius(g, t), cover_radius(g, s));
}

class CoarsenPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(CoarsenPropertyTest, Theorem11PropertiesHold) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  Graph g = connected_gnp(20, 0.2, WeightSpec::uniform(1, 10), rng);
  const Cover s = neighborhood_path_cover(g);
  const Cover t = coarsen(g, s, k);

  // (1) subsumption and cover validity.
  EXPECT_TRUE(is_cover(g, t));
  EXPECT_TRUE(subsumes(t, s));

  // (2) radius blow-up at most (2k - 1).
  const Weight rs = cover_radius(g, s);
  const Weight rt = cover_radius(g, t);
  EXPECT_LE(rt, (2 * k - 1) * std::max<Weight>(rs, 1));

  // (3) measured degree against the theorem's O(k |S|^{1/k}) shape; the
  // greedy construction is not the max-degree-optimal one (DESIGN.md), so
  // we allow a generous constant.
  const double bound =
      8.0 * k * std::pow(static_cast<double>(s.size()), 1.0 / k) + 4;
  EXPECT_LE(cover_max_degree(g, t), bound);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, CoarsenPropertyTest,
    ::testing::Combine(::testing::Values(11, 29, 47),
                       ::testing::Values(1, 2, 3, 5)));

TEST(Coarsen, SingletonInputStaysFine) {
  Rng rng(6);
  Graph g = grid_graph(4, 4, WeightSpec::constant(3), rng);
  const Cover s = singleton_cover(g);
  const Cover t = coarsen(g, s, 2);
  EXPECT_TRUE(subsumes(t, s));
  EXPECT_TRUE(is_cover(g, t));
  // Rad(S) = 0, so every output cluster must also have radius 0 by the
  // theorem bound; i.e. coarsening singletons cannot merge anything.
  EXPECT_EQ(cover_radius(g, t), 0);
}

TEST(Coarsen, RejectsBadArguments) {
  Rng rng(7);
  Graph g = path_graph(3, WeightSpec::constant(1), rng);
  const Cover s = singleton_cover(g);
  EXPECT_THROW(coarsen(g, s, 0), PreconditionError);
  Cover partial;
  partial.clusters = {{0}};
  EXPECT_THROW(coarsen(g, partial, 2), PreconditionError);
}

TEST(RestrictedDistances, MaskRespected) {
  Rng rng(8);
  Graph g = cycle_graph(6, WeightSpec::constant(1), rng);
  std::vector<char> allowed(6, 1);
  allowed[3] = 0;  // cut the cycle at node 3
  const auto dist = restricted_distances(g, 0, allowed);
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[4], 2);  // around the other side
  EXPECT_EQ(dist[3], -1);
  EXPECT_THROW(restricted_distances(g, 3, allowed), PreconditionError);
}

// ---- equality with the lazy-deletion heap ----------------------------

// The lazy-heap restricted search, the cluster center/radius built on it
// and the full-search path cover that the IndexedHeap kernel, the
// shared-scratch ClusterSearch and the early-stopping dijkstra_until
// replaced, verbatim: the references every result below must equal.
std::vector<Weight> reference_restricted_distances(
    const Graph& g, NodeId src, const std::vector<char>& allowed) {
  g.check_node(src);
  require(allowed.size() == static_cast<std::size_t>(g.node_count()),
          "allowed mask size must equal node count");
  require(allowed[static_cast<std::size_t>(src)] != 0,
          "source must be allowed");
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()),
                           ShortestPaths::kUnreachable);
  using Entry = std::pair<Weight, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0;
  heap.emplace(0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    for (const Arc a : g.neighbors(v)) {
      const NodeId u = a.node;
      if (!allowed[static_cast<std::size_t>(u)]) continue;
      const Weight nd = d + g.weight(a.edge);
      Weight& du = dist[static_cast<std::size_t>(u)];
      if (du == ShortestPaths::kUnreachable || nd < du) {
        du = nd;
        heap.emplace(nd, u);
      }
    }
  }
  return dist;
}

std::vector<char> membership(const Graph& g, const Cluster& s) {
  std::vector<char> in(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v : s) {
    g.check_node(v);
    in[static_cast<std::size_t>(v)] = 1;
  }
  return in;
}

// Eccentricity of src within the induced subgraph; kUnreachable if some
// cluster node cannot be reached inside the cluster.
Weight restricted_eccentricity(const Graph& g, const Cluster& s,
                               NodeId src, const std::vector<char>& in) {
  const auto dist = reference_restricted_distances(g, src, in);
  Weight ecc = 0;
  for (NodeId v : s) {
    const Weight d = dist[static_cast<std::size_t>(v)];
    if (d == ShortestPaths::kUnreachable) return ShortestPaths::kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::pair<NodeId, Weight> reference_center_and_radius(const Graph& g,
                                                      const Cluster& s) {
  require(is_cluster(g, s), "argument must be a valid cluster");
  const auto in = membership(g, s);
  NodeId best = s.front();
  Weight best_ecc = restricted_eccentricity(g, s, best, in);
  for (std::size_t i = 1; i < s.size(); ++i) {
    const Weight ecc = restricted_eccentricity(g, s, s[i], in);
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = s[i];
    }
  }
  return {best, best_ecc};
}

Cover reference_neighborhood_path_cover(const Graph& g) {
  Cover out;
  out.clusters.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const auto sp = dijkstra(g, ed.u);
    auto p = sp.path_to(g, ed.v);
    Cluster c{ed.u};
    NodeId cur = ed.u;
    for (EdgeId pe : p) {
      cur = g.other(pe, cur);
      c.push_back(cur);
    }
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    out.clusters.push_back(std::move(c));
  }
  return out;
}

// The references run a full search per edge, so the graphs are the
// reference set's with at most 1000 edges.
TEST(Cover, MatchesLazyHeapReferenceOnEveryGraph) {
  for (const GraphFamily& f : reference_graphs(300)) {
    const Graph& g = f.graph;
    if (g.edge_count() > 1000) continue;
    const int n = g.node_count();
    std::vector<char> allowed(static_cast<std::size_t>(n));
    for (std::size_t v = 0; v < allowed.size(); ++v) allowed[v] = v % 3 != 1;
    for (const NodeId src : {NodeId{0}, n / 2, n - 1}) {
      if (!allowed[static_cast<std::size_t>(src)]) continue;
      ASSERT_EQ(restricted_distances(g, src, allowed),
                reference_restricted_distances(g, src, allowed))
          << f.name << " from " << src;
    }

    const Cover paths = neighborhood_path_cover(g);
    ASSERT_EQ(paths.clusters, reference_neighborhood_path_cover(g).clusters)
        << f.name;
    if (!is_connected(g)) continue;  // coarsen needs every node covered
    std::vector<Cluster> clusters = paths.clusters;
    for (const int k : {1, 2, 3}) {
      const Cover t = coarsen(g, paths, k);
      clusters.insert(clusters.end(), t.clusters.begin(), t.clusters.end());
    }
    for (const Cluster& c : clusters) {
      const auto [center, radius] = reference_center_and_radius(g, c);
      ASSERT_EQ(cluster_center(g, c), center) << f.name;
      ASSERT_EQ(cluster_radius(g, c), radius) << f.name;
    }
  }
}

}  // namespace
}  // namespace csca
