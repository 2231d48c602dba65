#include "par/partition.h"

#include <algorithm>

#include "graph/indexed_heap.h"

namespace csca {

namespace {

// Grows the shards one at a time, each to ceil(rest / k) nodes, where
// `rest` counts the nodes the hubs leave. Hubs are pre-assigned
// round-robin (descending degree) and each shard's frontier starts from
// its hubs' neighborhoods, so leaves cluster with *a* hub while
// distinct hubs land on distinct workers. The frontier ranks an
// unassigned node by its attraction, the total weight of its edges into
// the shard so far; the heap's priority is the negated attraction, so
// ties go to the smaller id.
ShardPartition grow_shards(const Graph& g, int k, std::vector<NodeId> hubs) {
  const int n = g.node_count();
  ShardPartition out;
  out.shard_of.assign(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    out.shard_of[static_cast<std::size_t>(hubs[i])] =
        static_cast<int>(i) % k;
  }
  int assigned = static_cast<int>(hubs.size());
  const int target = (n - assigned + k - 1) / k;

  IndexedHeap frontier;
  frontier.reset(n);
  const auto attract = [&](NodeId v) {
    for (const Arc a : g.neighbors(v)) {
      if (out.shard_of[static_cast<std::size_t>(a.node)] != -1) continue;
      frontier.push(a.node,
                    frontier.priority_or(a.node, 0) - g.weight(a.edge));
    }
  };
  NodeId scan = 0;  // lowest possibly-unassigned node
  for (int shard = 0; shard < k && assigned < n; ++shard) {
    frontier.clear();
    for (std::size_t i = static_cast<std::size_t>(shard); i < hubs.size();
         i += static_cast<std::size_t>(k)) {
      attract(hubs[i]);
    }
    // If the frontier runs dry (disconnected remainder), reseed the same
    // shard from the next unassigned node: each pass fills exactly
    // min(target, remaining) nodes, so k passes cover every node.
    int size = 0;
    while (size < target && assigned < n) {
      if (frontier.empty()) {
        while (out.shard_of[static_cast<std::size_t>(scan)] != -1) ++scan;
        frontier.push(scan, 0);
      }
      const NodeId v = frontier.pop().node;
      out.shard_of[static_cast<std::size_t>(v)] = shard;
      ++size;
      ++assigned;
      attract(v);
    }
  }
  require(assigned == n, "shard partition left nodes unassigned");

  // Shards holding a hub or grown by a pass form a prefix of the ids,
  // so the ids are compact and the engine never sees an empty shard.
  out.shards =
      *std::max_element(out.shard_of.begin(), out.shard_of.end()) + 1;
  out.hubs = std::move(hubs);
  return out;
}

}  // namespace

std::vector<int> ShardPartition::sizes() const {
  std::vector<int> out(static_cast<std::size_t>(shards), 0);
  for (int s : shard_of) ++out[static_cast<std::size_t>(s)];
  return out;
}

ShardPartition partition_shards(const Graph& g, int k) {
  return partition_shards(g, k, PartitionOptions{});
}

ShardPartition partition_shards(const Graph& g, int k,
                                const PartitionOptions& opt) {
  require(k >= 1, "shard count must be >= 1");
  const int n = g.node_count();
  k = std::min(k, n);
  if (k <= 1) {  // one shard (or no nodes): nothing to search
    ShardPartition out;
    out.shard_of.assign(static_cast<std::size_t>(n), 0);
    return out;
  }

  // Hub detection (see header); the absolute degree floor keeps regular
  // families hub-free.
  std::vector<NodeId> hubs;
  if (opt.hub_factor > 0 && g.edge_count() > 0) {
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
  return grow_shards(g, k, std::move(hubs));
}

}  // namespace csca
