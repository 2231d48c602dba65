#include "graph/measures.h"

#include <algorithm>
#include <vector>

#include "graph/indexed_heap.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"

namespace csca {

NetworkMeasures measure(const Graph& g) {
  require(is_connected(g), "measure requires a connected graph");
  NetworkMeasures out;
  out.n = g.node_count();
  out.m = g.edge_count();
  out.comm_E = g.total_weight();
  out.comm_V = mst_weight(g);
  out.W = g.max_weight();

  // Weighted CSR: v's arcs are [first[v], first[v + 1]) of to / w. Built
  // per call, so weights re-assigned by churn are read fresh; it holds
  // the weights next to the endpoints, so a relaxation costs no
  // edge-table load. An n x n distance matrix (Floyd-Warshall) would
  // make this call faster but its memory quadratic; the sweep stays
  // O(n + m).
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<NodeId> to;
  std::vector<Weight> w;
  to.reserve(2 * static_cast<std::size_t>(g.edge_count()));
  w.reserve(to.capacity());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const Arc a : g.neighbors(v)) {
      to.push_back(a.node);
      w.push_back(g.weight(a.edge));
    }
    first[static_cast<std::size_t>(v) + 1] = to.size();
  }

  // One single-source pass per node serves both the diameter and d.
  std::vector<Weight> dist(n);
  IndexedHeap heap;
  heap.reset(g.node_count());
  for (NodeId src = 0; src < g.node_count(); ++src) {
    std::fill(dist.begin(), dist.end(), ShortestPaths::kUnreachable);
    dist[static_cast<std::size_t>(src)] = 0;
    heap.push(src, 0);
    while (!heap.empty()) {
      const auto [d, v] = heap.pop();
      out.comm_D = std::max(out.comm_D, d);
      const auto vi = static_cast<std::size_t>(v);
      for (std::size_t i = first[vi]; i < first[vi + 1]; ++i) {
        const Weight nd = d + w[i];
        Weight& du = dist[static_cast<std::size_t>(to[i])];
        if (du == ShortestPaths::kUnreachable || nd < du) {
          du = nd;
          heap.push(to[i], nd);
        }
      }
    }
    const auto si = static_cast<std::size_t>(src);
    for (std::size_t i = first[si]; i < first[si + 1]; ++i) {
      out.d = std::max(out.d, dist[static_cast<std::size_t>(to[i])]);
    }
  }
  return out;
}

}  // namespace csca
