#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <queue>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "reference_graphs.h"

namespace csca {
namespace {

TEST(Dijkstra, PathGraphDistances) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(3), rng);
  const auto sp = dijkstra(g, 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(sp.dist[static_cast<std::size_t>(v)], 3 * v);
  }
}

TEST(Dijkstra, PrefersLightMultiHopOverHeavyDirect) {
  Graph g(3);
  g.add_edge(0, 2, 10);
  g.add_edge(0, 1, 3);
  g.add_edge(1, 2, 3);
  const auto sp = dijkstra(g, 0);
  EXPECT_EQ(sp.dist[2], 6);
  const auto p = sp.path_to(g, 2);
  EXPECT_EQ(p.size(), 2u);
}

TEST(Dijkstra, UnreachableMarked) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  const auto sp = dijkstra(g, 0);
  EXPECT_TRUE(sp.reachable(1));
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_THROW(sp.path_to(g, 2), PreconditionError);
}

TEST(Dijkstra, TreeIsValidRootedTreeWithMatchingDepths) {
  Rng rng(2);
  Graph g = connected_gnp(30, 0.2, WeightSpec::uniform(1, 20), rng);
  const auto sp = dijkstra(g, 4);
  const auto t = sp.tree(g);
  EXPECT_TRUE(t.spanning());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(t.depth(g, v), sp.dist[static_cast<std::size_t>(v)]);
  }
}

TEST(Dijkstra, PathToIsConsistentWithDistance) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = connected_gnp(25, 0.15, WeightSpec::uniform(1, 30), rng);
    const auto sp = dijkstra(g, 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto p = sp.path_to(g, v);
      EXPECT_EQ(total_weight(g, p), sp.dist[static_cast<std::size_t>(v)]);
      // Path must start at source and end at v.
      if (!p.empty()) {
        const Edge& first = g.edge(p.front());
        EXPECT_TRUE(first.u == 0 || first.v == 0);
        const Edge& last = g.edge(p.back());
        EXPECT_TRUE(last.u == v || last.v == v);
      }
    }
  }
}

// Bellman-Ford as an independent oracle.
std::vector<Weight> bellman_ford(const Graph& g, NodeId src) {
  const Weight inf = std::numeric_limits<Weight>::max() / 4;
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()), inf);
  dist[static_cast<std::size_t>(src)] = 0;
  for (int iter = 0; iter < g.node_count(); ++iter) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      const auto du = dist[static_cast<std::size_t>(e.u)];
      const auto dv = dist[static_cast<std::size_t>(e.v)];
      if (du + e.w < dist[static_cast<std::size_t>(e.v)]) {
        dist[static_cast<std::size_t>(e.v)] = du + e.w;
        changed = true;
      }
      if (dv + e.w < dist[static_cast<std::size_t>(e.u)]) {
        dist[static_cast<std::size_t>(e.u)] = dv + e.w;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

class DijkstraPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBellmanFordOnRandomGraphs) {
  Rng rng(GetParam());
  Graph g = connected_gnp(40, 0.12, WeightSpec::uniform(1, 100), rng);
  const auto sp = dijkstra(g, 0);
  const auto bf = bellman_ford(g, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(sp.dist[static_cast<std::size_t>(v)],
              bf[static_cast<std::size_t>(v)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(Distance, SymmetricOnUndirectedGraph) {
  Rng rng(5);
  Graph g = connected_gnp(20, 0.2, WeightSpec::uniform(1, 9), rng);
  EXPECT_EQ(distance(g, 3, 17), distance(g, 17, 3));
  EXPECT_EQ(distance(g, 6, 6), 0);
}

// ---- equality with the lazy-deletion heap ----------------------------

// The lazy-deletion Dijkstra that the IndexedHeap kernel replaced,
// verbatim: the reference every result below must equal.
ShortestPaths dijkstra_impl(const Graph& g, NodeId src,
                            const std::vector<char>* allowed_edges) {
  g.check_node(src);
  const auto n = static_cast<std::size_t>(g.node_count());
  ShortestPaths out;
  out.source = src;
  out.dist.assign(n, ShortestPaths::kUnreachable);
  out.parent_edge.assign(n, kNoEdge);

  using Entry = std::pair<Weight, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<char> done(n, 0);
  out.dist[static_cast<std::size_t>(src)] = 0;
  heap.emplace(0, src);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(v)]) continue;
    done[static_cast<std::size_t>(v)] = 1;
    for (const Arc a : g.neighbors(v)) {
      const EdgeId e = a.edge;
      if (allowed_edges != nullptr &&
          !(*allowed_edges)[static_cast<std::size_t>(e)]) {
        continue;
      }
      const NodeId u = a.node;
      const Weight nd = d + g.weight(e);
      Weight& du = out.dist[static_cast<std::size_t>(u)];
      if (du == ShortestPaths::kUnreachable || nd < du) {
        du = nd;
        out.parent_edge[static_cast<std::size_t>(u)] = e;
        heap.emplace(nd, u);
      }
    }
  }
  return out;
}

TEST(Dijkstra, MatchesLazyHeapReferenceOnEveryGraph) {
  for (const GraphFamily& f : reference_graphs(1 << 30)) {
    const Graph& g = f.graph;
    const int n = g.node_count();
    std::vector<char> mask(static_cast<std::size_t>(g.edge_count()));
    for (std::size_t e = 0; e < mask.size(); ++e) mask[e] = e % 5 != 2;
    std::vector<NodeId> sources{0, n / 2, n - 1};
    if (n <= 64) {
      sources.clear();
      for (NodeId v = 0; v < n; ++v) sources.push_back(v);
    }
    for (const NodeId src : sources) {
      const ShortestPaths ref = dijkstra_impl(g, src, nullptr);
      const ShortestPaths sp = dijkstra(g, src);
      ASSERT_EQ(sp.dist, ref.dist) << f.name << " from " << src;
      ASSERT_EQ(sp.parent_edge, ref.parent_edge) << f.name << " from " << src;

      const ShortestPaths ref_sub = dijkstra_impl(g, src, &mask);
      const ShortestPaths sub = dijkstra_subgraph(g, src, mask);
      ASSERT_EQ(sub.dist, ref_sub.dist) << f.name << " from " << src;
      ASSERT_EQ(sub.parent_edge, ref_sub.parent_edge)
          << f.name << " from " << src;

      // Stopping at t leaves t's distance and path as the full search's.
      for (const NodeId t : {NodeId{0}, n / 3, n - 1}) {
        const auto ti = static_cast<std::size_t>(t);
        const ShortestPaths until = dijkstra_until(g, src, t);
        ASSERT_EQ(until.dist[ti], ref.dist[ti]) << f.name << " " << src;
        ASSERT_EQ(distance(g, src, t), ref.dist[ti]) << f.name << " " << src;
        if (ref.reachable(t)) {
          ASSERT_EQ(until.path_to(g, t), ref.path_to(g, t))
              << f.name << " " << src << " -> " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace csca
