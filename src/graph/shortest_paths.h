// Centralized single-source shortest paths (Dijkstra).
//
// Serves two roles: (1) the reference oracle every distributed SPT
// algorithm is validated against, and (2) a substrate inside centralized
// constructions (the SLT algorithm of §2.2 builds an SPT twice).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/indexed_heap.h"
#include "graph/tree.h"

namespace csca {

/// Result of a single-source shortest-path computation. dist[v] is the
/// weighted distance from the source (kUnreachable if disconnected);
/// parent_edge[v] is the last edge on one shortest path to v.
struct ShortestPaths {
  static constexpr Weight kUnreachable = -1;

  NodeId source = kNoNode;
  std::vector<Weight> dist;
  std::vector<EdgeId> parent_edge;

  bool reachable(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] != kUnreachable;
  }

  /// The shortest-path tree as a RootedTree (paper's SPT). Requires the
  /// graph used to compute this result.
  RootedTree tree(const Graph& g) const;

  /// Edge ids of one shortest path source -> v. Requires reachable(v).
  std::vector<EdgeId> path_to(const Graph& g, NodeId v) const;
};

/// The Dijkstra kernel behind every search here and in partition/:
/// settles nodes from src in (distance, node id) order, relaxing only
/// the arcs admit(arc) accepts, and returns as soon as `stop` settles
/// (kNoNode: once everything reachable has settled). On entry dist, and
/// parent when non-null, hold kUnreachable / kNoEdge for every node the
/// search can reach; on return a settled node's entries are final. The
/// heap is reset here, so one heap serves any number of searches.
template <typename Admit>
void shortest_path_search(const Graph& g, NodeId src, const Admit& admit,
                          NodeId stop, IndexedHeap& heap,
                          std::vector<Weight>& dist,
                          std::vector<EdgeId>* parent) {
  heap.reset(g.node_count());
  dist[static_cast<std::size_t>(src)] = 0;
  heap.push(src, 0);
  while (!heap.empty()) {
    const auto [d, v] = heap.pop();
    if (v == stop) return;
    for (const Arc a : g.neighbors(v)) {
      if (!admit(a)) continue;
      // A settled node never relaxes again: weights are >= 1, so
      // nd > d >= its distance.
      const Weight nd = d + g.weight(a.edge);
      Weight& du = dist[static_cast<std::size_t>(a.node)];
      if (du == ShortestPaths::kUnreachable || nd < du) {
        du = nd;
        if (parent != nullptr) {
          (*parent)[static_cast<std::size_t>(a.node)] = a.edge;
        }
        heap.push(a.node, nd);
      }
    }
  }
}

/// Dijkstra from src over non-negative integer weights.
ShortestPaths dijkstra(const Graph& g, NodeId src);

/// Dijkstra from src that returns once `stop` settles: dist and
/// parent_edge are final for stop and for every node on its shortest
/// path (path_to(g, stop) is the one dijkstra() gives); entries of
/// nodes farther than stop are partial.
ShortestPaths dijkstra_until(const Graph& g, NodeId src, NodeId stop);

/// Dijkstra restricted to the subgraph G' = (V, E') where E' is the set
/// of edges with allowed_edges[e] != 0. Used by the SLT construction
/// (§2.2 step 6 computes an SPT of the subgraph G').
ShortestPaths dijkstra_subgraph(const Graph& g, NodeId src,
                                const std::vector<char>& allowed_edges);

/// Weighted distance between two nodes (kUnreachable if disconnected).
Weight distance(const Graph& g, NodeId u, NodeId v);

/// Route-consistency certificate check for a claimed distance vector:
/// dist is the single-source shortest-path solution from src iff
/// dist[src] == 0, every edge satisfies the triangle inequality
/// |dist[u] - dist[v]| <= w(e) (no relaxing edge remains), and every
/// non-source node has some incident edge achieving
/// dist[v] == dist[u] + w(e) (a consistent route to follow home).
/// Returns the number of violated conditions — 0 iff dist matches
/// dijkstra(g, src) on a connected graph. Used by the self-stabilizing
/// wrapper to detect an SPT invalidated by churn without re-running the
/// protocol.
std::int64_t spt_route_violations(const Graph& g, NodeId src,
                                  const std::vector<Weight>& dist);

}  // namespace csca
