// Node partitioner for the sharded conservative engine.
//
// Grows k connected-ish regions by weighted-greedy BFS: each shard
// starts from the lowest-id unassigned node and repeatedly absorbs the
// frontier node with the largest total edge weight into the shard so
// far (ties broken by node id), until the shard reaches its target size
// ceil(n / k). Heavier edges are thus likelier to be shard-internal,
// which matters twice for the engine: internal traffic needs no
// cross-shard forwarding, and — because a heavy cross edge contributes
// w-scaled lookahead while a light one contributes little — keeping
// light edges out of the cut keeps the conservative safe windows wide.
//
// High-degree hubs get delegate treatment (the HavoqGT idea, adapted to
// the single-owner model the engine's bit-identity contract requires):
// star-like families would otherwise pack a hub *and* its ceil(n/k)
// nearest leaves into one shard, serializing most of the run. When a
// graph has hubs — degree far above the mean — they are assigned first,
// round-robin across shards in descending degree order, so hub-incident
// event load spreads over all workers; the greedy growth then fills the
// shards around them. One growth routine serves both cases: a graph
// without hubs (grids, paths, gnp) simply seeds no frontier from hubs.
// k = 1 is trivial: every node on shard 0, no search.
//
// src/partition/ (the paper's radius covers) solves a different
// problem: its clusters overlap by construction, and an event must have
// exactly one owner. Hence this small dedicated partitioner.
//
// Deterministic: a pure function of the graph (+ k + options). The
// parallel engine's reproducibility contract starts here.
#pragma once

#include <vector>

#include "graph/graph.h"

namespace csca {

struct ShardPartition {
  int shards = 1;
  std::vector<int> shard_of;  ///< node -> shard id in [0, shards)
  /// Delegate hubs, descending degree (empty when none qualified).
  std::vector<NodeId> hubs;

  int shard(NodeId v) const {
    return shard_of[static_cast<std::size_t>(v)];
  }
  /// Nodes per shard.
  std::vector<int> sizes() const;
};

/// Hub detection knobs. A node is a delegate hub when its degree is at
/// least hub_factor times the mean degree AND at least hub_min_degree;
/// the absolute floor keeps every small/regular test graph hub-free.
struct PartitionOptions {
  int hub_factor = 8;
  int hub_min_degree = 64;
};

/// Partitions g's nodes into at most k non-empty shards (fewer only
/// when k > n). Requires k >= 1.
ShardPartition partition_shards(const Graph& g, int k);
ShardPartition partition_shards(const Graph& g, int k,
                                const PartitionOptions& opt);

}  // namespace csca
