#include "par/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "reference_graphs.h"

namespace csca {
namespace {

void expect_valid(const ShardPartition& p, const Graph& g, int k) {
  EXPECT_GE(p.shards, 1);
  EXPECT_LE(p.shards, std::max(1, std::min(k, g.node_count())));
  ASSERT_EQ(p.shard_of.size(), static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_GE(p.shard(v), 0);
    EXPECT_LT(p.shard(v), p.shards);
  }
  const auto sizes = p.sizes();
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    EXPECT_GT(sizes[s], 0) << "shard " << s << " is empty";
  }
}

TEST(ShardPartition, RejectsNonPositiveK) {
  Rng rng(1);
  const Graph g = path_graph(4, WeightSpec::constant(1), rng);
  EXPECT_THROW(partition_shards(g, 0), std::exception);
}

TEST(ShardPartition, SingleShardTakesEverything) {
  Rng rng(2);
  const Graph g = connected_gnp(12, 0.4, WeightSpec::uniform(1, 9), rng);
  const ShardPartition p = partition_shards(g, 1);
  expect_valid(p, g, 1);
  EXPECT_EQ(p.shards, 1);
}

TEST(ShardPartition, KLargerThanNodeCountCapsAtN) {
  Rng rng(3);
  const Graph g = path_graph(5, WeightSpec::constant(2), rng);
  const ShardPartition p = partition_shards(g, 64);
  expect_valid(p, g, 64);
  EXPECT_EQ(p.shards, 5);
}

TEST(ShardPartition, BalancedToCeilTarget) {
  Rng rng(4);
  const Graph g = grid_graph(6, 6, WeightSpec::uniform(1, 8), rng);
  for (int k : {2, 3, 4, 5}) {
    const ShardPartition p = partition_shards(g, k);
    expect_valid(p, g, k);
    const int target = (g.node_count() + k - 1) / k;
    for (int size : p.sizes()) EXPECT_LE(size, target);
  }
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Rng rng(5);
  const Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 12), rng);
  const ShardPartition a = partition_shards(g, 4);
  const ShardPartition b = partition_shards(g, 4);
  EXPECT_EQ(a.shard_of, b.shard_of);
}

TEST(ShardPartition, DisconnectedGraphStaysWithinK) {
  // Many components, few shards: the grower must reseed within a shard
  // instead of opening a new shard per component.
  Graph g(9);  // 4 isolated pairs + 1 singleton, no edges between them
  g.add_edge(0, 1, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(4, 5, 1);
  g.add_edge(6, 7, 1);
  const ShardPartition p = partition_shards(g, 2);
  expect_valid(p, g, 2);
  EXPECT_LE(p.shards, 2);
}

TEST(ShardPartition, HeavyEdgesPreferentiallyInternal) {
  // A dumbbell: two heavy cliques joined by a light bridge. At k=2 the
  // weighted-greedy growth should cut the bridge, not a clique.
  Graph g(8);
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = u + 1; v < 4; ++v) g.add_edge(u, v, 100);
  }
  for (NodeId u = 4; u < 8; ++u) {
    for (NodeId v = u + 1; v < 8; ++v) g.add_edge(u, v, 100);
  }
  g.add_edge(3, 4, 1);  // light bridge
  const ShardPartition p = partition_shards(g, 2);
  expect_valid(p, g, 2);
  ASSERT_EQ(p.shards, 2);
  EXPECT_EQ(p.shard(0), p.shard(1));
  EXPECT_EQ(p.shard(0), p.shard(2));
  EXPECT_EQ(p.shard(0), p.shard(3));
  EXPECT_EQ(p.shard(4), p.shard(5));
  EXPECT_EQ(p.shard(4), p.shard(6));
  EXPECT_EQ(p.shard(4), p.shard(7));
  EXPECT_NE(p.shard(0), p.shard(4));
}

// ---- delegate (hub) partitioning ------------------------------------

TEST(ShardPartition, HubsDetectedAndSpreadRoundRobin) {
  // Four degree-71/72 centers clear the 64-degree floor; round-robin
  // assignment must put two on each of two shards instead of letting
  // the greedy growth stack all four heavy mailboxes on one worker.
  const Graph g = hub_chain(4, 70);
  const ShardPartition p = partition_shards(g, 2);
  expect_valid(p, g, 2);
  ASSERT_EQ(p.hubs.size(), 4u);
  std::vector<NodeId> hubs = p.hubs;
  std::sort(hubs.begin(), hubs.end());
  EXPECT_EQ(hubs, (std::vector<NodeId>{0, 1, 2, 3}));
  int per_shard[2] = {0, 0};
  for (const NodeId h : p.hubs) ++per_shard[p.shard(h)];
  EXPECT_EQ(per_shard[0], 2);
  EXPECT_EQ(per_shard[1], 2);
}

TEST(ShardPartition, LeavesClusterWithTheirHub) {
  const Graph g = hub_chain(4, 70);
  const ShardPartition p = partition_shards(g, 2);
  int co_located = 0;
  for (NodeId c = 0; c < 4; ++c) {
    for (int l = 0; l < 70; ++l) {
      const NodeId leaf = 4 + c * 70 + l;
      if (p.shard(leaf) == p.shard(c)) ++co_located;
    }
  }
  // The per-shard growth is seeded from that shard's hubs'
  // neighborhoods, so leaves overwhelmingly follow their center.
  EXPECT_GE(co_located, 4 * 70 * 9 / 10);
}

TEST(ShardPartition, HubFreeGraphsTakeTheLegacyPath) {
  // Regular small graphs stay under the 64-degree floor: the default
  // options must reproduce the historical greedy partition exactly
  // (the layout every pinned sharded golden was recorded against).
  Rng rng(4);
  const Graph g = grid_graph(6, 6, WeightSpec::uniform(1, 8), rng);
  for (int k : {2, 4}) {
    const ShardPartition with_detection = partition_shards(g, k);
    PartitionOptions off;
    off.hub_factor = 0;
    const ShardPartition legacy = partition_shards(g, k, off);
    EXPECT_EQ(with_detection.shard_of, legacy.shard_of) << k;
    EXPECT_TRUE(with_detection.hubs.empty()) << k;
  }
}

TEST(ShardPartition, HubDetectionDisabledByOptions) {
  const Graph g = hub_chain(4, 70);
  PartitionOptions off;
  off.hub_factor = 0;
  const ShardPartition p = partition_shards(g, 2, off);
  expect_valid(p, g, 2);
  EXPECT_TRUE(p.hubs.empty());
}

TEST(ShardPartition, SingleShardNeverDelegates) {
  const Graph g = hub_chain(4, 70);
  const ShardPartition p = partition_shards(g, 1);
  expect_valid(p, g, 1);
  EXPECT_EQ(p.shards, 1);
  EXPECT_TRUE(p.hubs.empty());
}

// ---- equality with the lazy-deletion heaps --------------------------

// The two growth loops the single IndexedHeap grower replaced, and the
// dispatch that chose between them, verbatim: the reference every
// partition below must equal.
using Cand = std::pair<Weight, NodeId>;

// Max-heap of (attraction, node): attraction is the total weight of
// edges from `node` into the shard currently being grown. Entries go
// stale when a node's attraction grows or the node is assigned; stale
// entries are skipped on pop (lazy deletion). Ties prefer the smaller
// node id so the result is independent of heap internals.
bool cand_less(const Cand& a, const Cand& b) {
  return a.first < b.first || (a.first == b.first && a.second > b.second);
}

// The historical weighted-greedy BFS: grows shards one at a time to a
// ceil(n / k) node target. Runs verbatim for hub-free graphs — the
// delegate path below only wraps it with hub pre-assignment.
ShardPartition partition_greedy(const Graph& g, int k) {
  const int n = g.node_count();
  ShardPartition out;
  out.shard_of.assign(static_cast<std::size_t>(n), -1);
  const int target = (n + k - 1) / k;

  std::vector<Weight> attraction(static_cast<std::size_t>(n), 0);

  int assigned = 0;
  NodeId scan = 0;  // lowest possibly-unassigned node
  int shard = 0;
  while (assigned < n) {
    // Grow one shard to its target size. If the frontier exhausts early
    // (disconnected remainder), reseed the same shard from the next
    // unassigned node: each pass fills exactly min(target, remaining)
    // nodes, so the shard count never exceeds k.
    std::priority_queue<Cand, std::vector<Cand>, decltype(&cand_less)>
        frontier(&cand_less);
    std::fill(attraction.begin(), attraction.end(), Weight{0});
    int size = 0;
    while (size < target && assigned < n) {
      if (frontier.empty()) {
        while (out.shard_of[static_cast<std::size_t>(scan)] != -1) ++scan;
        frontier.push({Weight{0}, scan});
      }
      const auto [gain, v] = frontier.top();
      frontier.pop();
      const auto vi = static_cast<std::size_t>(v);
      if (out.shard_of[vi] != -1 || gain != attraction[vi]) {
        continue;  // already assigned, or a stale entry
      }
      out.shard_of[vi] = shard;
      ++size;
      ++assigned;
      for (const Arc a : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(a.node);
        if (out.shard_of[ui] != -1) continue;
        attraction[ui] += g.weight(a.edge);
        frontier.push({attraction[ui], a.node});
      }
    }
    ++shard;
  }
  out.shards = shard;
  return out;
}

// Delegate path: hubs are pre-assigned round-robin (descending degree),
// then each shard grows around its hubs — the pass's frontier is seeded
// from the hubs' neighborhoods, so leaves cluster with *a* hub while
// distinct hubs land on distinct workers.
ShardPartition partition_with_hubs(const Graph& g, int k,
                                   std::vector<NodeId> hubs) {
  const int n = g.node_count();
  ShardPartition out;
  out.shard_of.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    out.shard_of[static_cast<std::size_t>(hubs[i])] =
        static_cast<int>(i) % k;
  }
  int assigned = static_cast<int>(hubs.size());
  const int rest = n - assigned;
  const int target = (rest + k - 1) / k;

  std::vector<Weight> attraction(static_cast<std::size_t>(n), 0);
  NodeId scan = 0;
  for (int shard = 0; shard < k && assigned < n; ++shard) {
    std::priority_queue<Cand, std::vector<Cand>, decltype(&cand_less)>
        frontier(&cand_less);
    std::fill(attraction.begin(), attraction.end(), Weight{0});
    // Seed with the neighborhoods of this shard's hubs.
    for (std::size_t i = static_cast<std::size_t>(shard); i < hubs.size();
         i += static_cast<std::size_t>(k)) {
      for (const Arc a : g.neighbors(hubs[i])) {
        const auto ui = static_cast<std::size_t>(a.node);
        if (out.shard_of[ui] != -1) continue;
        attraction[ui] += g.weight(a.edge);
        frontier.push({attraction[ui], a.node});
      }
    }
    int size = 0;
    while (size < target && assigned < n) {
      if (frontier.empty()) {
        while (out.shard_of[static_cast<std::size_t>(scan)] != -1) ++scan;
        frontier.push({Weight{0}, scan});
      }
      const auto [gain, v] = frontier.top();
      frontier.pop();
      const auto vi = static_cast<std::size_t>(v);
      if (out.shard_of[vi] != -1 || gain != attraction[vi]) continue;
      out.shard_of[vi] = shard;
      ++size;
      ++assigned;
      for (const Arc a : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(a.node);
        if (out.shard_of[ui] != -1) continue;
        attraction[ui] += g.weight(a.edge);
        frontier.push({attraction[ui], a.node});
      }
    }
  }
  // k passes at ceil(rest / k) each cover every non-hub node; anything
  // else is a bug in the accounting above.
  require(assigned == n, "hub partition left nodes unassigned");

  // A shard can end up empty only in the degenerate all-hubs case with
  // fewer hubs than k; compact ids so the engine never sees an empty
  // shard.
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int s : out.shard_of) ++count[static_cast<std::size_t>(s)];
  std::vector<int> remap(static_cast<std::size_t>(k), -1);
  int next = 0;
  for (int s = 0; s < k; ++s) {
    if (count[static_cast<std::size_t>(s)] > 0) {
      remap[static_cast<std::size_t>(s)] = next++;
    }
  }
  if (next != k) {
    for (int& s : out.shard_of) s = remap[static_cast<std::size_t>(s)];
  }
  out.shards = next;
  out.hubs = std::move(hubs);
  return out;
}


ShardPartition reference_partition(const Graph& g, int k,
                                   const PartitionOptions& opt) {
  require(k >= 1, "shard count must be >= 1");
  const int n = g.node_count();
  if (n == 0) {
    ShardPartition out;
    out.shards = 1;
    return out;
  }
  k = std::min(k, n);

  // Hub detection (see header). Meaningless at k = 1, and the absolute
  // degree floor keeps regular families on the historical path.
  std::vector<NodeId> hubs;
  if (k > 1 && opt.hub_factor > 0 && g.edge_count() > 0) {
    const double mean =
        2.0 * static_cast<double>(g.edge_count()) / static_cast<double>(n);
    const double cut = std::max(static_cast<double>(opt.hub_min_degree),
                                static_cast<double>(opt.hub_factor) * mean);
    for (NodeId v = 0; v < n; ++v) {
      if (static_cast<double>(g.degree(v)) >= cut) hubs.push_back(v);
    }
    std::sort(hubs.begin(), hubs.end(), [&](NodeId a, NodeId b) {
      return g.degree(a) > g.degree(b) ||
             (g.degree(a) == g.degree(b) && a < b);
    });
  }
  if (hubs.empty()) return partition_greedy(g, k);
  return partition_with_hubs(g, k, std::move(hubs));
}

TEST(ShardPartition, MatchesLazyHeapReferenceOnEveryGraph) {
  PartitionOptions no_hubs;
  no_hubs.hub_factor = 0;
  // Every node of at least the mean degree is a hub: on regular graphs
  // (cycles, and at k = 7 on 9 nodes) the hubs alone fill the shards.
  PartitionOptions many_hubs;
  many_hubs.hub_factor = 1;
  many_hubs.hub_min_degree = 0;
  for (const GraphFamily& f : reference_graphs(1 << 30)) {
    for (const int k : {1, 2, 3, 4, 7}) {
      for (const PartitionOptions& opt :
           {PartitionOptions{}, no_hubs, many_hubs}) {
        const ShardPartition ref = reference_partition(f.graph, k, opt);
        const ShardPartition p = partition_shards(f.graph, k, opt);
        ASSERT_EQ(p.shards, ref.shards) << f.name << " k=" << k;
        ASSERT_EQ(p.shard_of, ref.shard_of) << f.name << " k=" << k;
        ASSERT_EQ(p.hubs, ref.hubs) << f.name << " k=" << k;
      }
    }
  }
  // The hub chain delegates its centers at every k > 1.
  EXPECT_EQ(partition_shards(hub_chain(4, 70), 3).hubs.size(), 4u);
}

}  // namespace
}  // namespace csca
