#include "graph/measures.h"

#include <algorithm>
#include <vector>

#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"

namespace csca {

namespace {

// The n single-source passes of measure() over one reused scratch:
// dist, done and the heap are allocated once, the heap orders plain
// (distance, node) entries, and no parent edges are tracked. Distances
// equal dijkstra()'s (tests/graph/measures_test.cpp compares them).
class DistanceSweep {
 public:
  explicit DistanceSweep(const Graph& g)
      : g_(g),
        dist_(static_cast<std::size_t>(g.node_count())),
        done_(static_cast<std::size_t>(g.node_count())) {}

  // Distances from src; valid until the next call.
  const std::vector<Weight>& from(NodeId src) {
    std::fill(dist_.begin(), dist_.end(), ShortestPaths::kUnreachable);
    std::fill(done_.begin(), done_.end(), 0);
    heap_.clear();
    dist_[static_cast<std::size_t>(src)] = 0;
    push({0, src});
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Entry top = heap_.back();
      heap_.pop_back();
      const auto vi = static_cast<std::size_t>(top.node);
      if (done_[vi]) continue;
      done_[vi] = 1;
      for (const Arc a : g_.neighbors(top.node)) {
        const Weight nd = top.dist + g_.weight(a.edge);
        Weight& du = dist_[static_cast<std::size_t>(a.node)];
        if (du == ShortestPaths::kUnreachable || nd < du) {
          du = nd;
          push({nd, a.node});
        }
      }
    }
    return dist_;
  }

 private:
  struct Entry {
    Weight dist;
    NodeId node;
  };
  // Max-heap comparator that keeps the smallest (dist, node) on top.
  static bool later(const Entry& a, const Entry& b) {
    return a.dist != b.dist ? a.dist > b.dist : a.node > b.node;
  }
  void push(Entry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  const Graph& g_;
  std::vector<Weight> dist_;
  std::vector<char> done_;
  std::vector<Entry> heap_;
};

}  // namespace

Weight weighted_radius(const Graph& g, NodeId v) {
  const auto sp = dijkstra(g, v);
  Weight r = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    require(sp.reachable(u), "weighted_radius requires a connected graph");
    r = std::max(r, sp.dist[static_cast<std::size_t>(u)]);
  }
  return r;
}

Weight weighted_diameter(const Graph& g) {
  require(is_connected(g), "weighted_diameter requires a connected graph");
  Weight diam = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    diam = std::max(diam, weighted_radius(g, v));
  }
  return diam;
}

Weight max_neighbor_distance(const Graph& g) {
  require(is_connected(g),
          "max_neighbor_distance requires a connected graph");
  Weight d = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto sp = dijkstra(g, v);
    for (const Arc a : g.neighbors(v)) {
      d = std::max(d, sp.dist[static_cast<std::size_t>(a.node)]);
    }
  }
  return d;
}

NetworkMeasures measure(const Graph& g) {
  require(is_connected(g), "measure requires a connected graph");
  NetworkMeasures out;
  out.n = g.node_count();
  out.m = g.edge_count();
  out.comm_E = g.total_weight();
  out.comm_V = mst_weight(g);
  out.W = g.max_weight();
  out.comm_D = 0;
  out.d = 0;
  // One single-source pass per node serves both the diameter and d.
  DistanceSweep sweep(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::vector<Weight>& dist = sweep.from(v);
    for (const Weight du : dist) out.comm_D = std::max(out.comm_D, du);
    for (const Arc a : g.neighbors(v)) {
      out.d = std::max(out.d, dist[static_cast<std::size_t>(a.node)]);
    }
  }
  return out;
}

}  // namespace csca
