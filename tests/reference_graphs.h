// The graph set on which the graph-layer searches (shortest paths,
// covers, shard partitions) are checked against verbatim copies of the
// lazy-deletion-heap routines they replaced: every sweep family at
// n in {9, 33, 64, 200}, square grids of side 16 / 64 / 128,
// connected_gnp at n = 300, a chain of stars whose centers are
// delegate hubs, and a disconnected graph.
#pragma once

#include <string>
#include <vector>

#include "graph/families.h"
#include "graph/generators.h"

namespace csca {

/// `centers` star centers joined in a chain, each with `leaves` leaves.
/// Leaf ids: centers + c*leaves + l for center c.
inline Graph hub_chain(int centers, int leaves) {
  Graph g(centers + centers * leaves);
  for (NodeId c = 0; c + 1 < centers; ++c) g.add_edge(c, c + 1, 1);
  NodeId next = centers;
  for (NodeId c = 0; c < centers; ++c) {
    for (int l = 0; l < leaves; ++l) g.add_edge(c, next++, 1);
  }
  return g;
}

/// The set above, leaving out graphs with more than max_nodes nodes.
inline std::vector<GraphFamily> reference_graphs(int max_nodes) {
  std::vector<GraphFamily> out;
  const auto add = [&](std::string name, Graph g) {
    if (g.node_count() <= max_nodes) {
      out.push_back({std::move(name), std::move(g)});
    }
  };
  for (const int n : {9, 33, 64, 200}) {
    for (const std::string& name : family_names()) {
      add(name + "@" + std::to_string(n), make_family(name, n, 7));
    }
  }
  Rng rng(11);
  for (const int side : {16, 64, 128}) {
    add("grid" + std::to_string(side),
        grid_graph(side, side, WeightSpec::uniform(1, 16), rng));
  }
  add("gnp300", connected_gnp(300, 0.05, WeightSpec::uniform(1, 32), rng));
  add("hub_chain", hub_chain(4, 70));
  // A weighted cycle, a path, a triangle and isolated nodes.
  Graph split(30);
  for (NodeId v = 0; v < 10; ++v) split.add_edge(v, (v + 1) % 10, 1 + v % 4);
  for (NodeId v = 10; v < 19; ++v) split.add_edge(v, v + 1, 3);
  split.add_edge(25, 26, 2);
  split.add_edge(26, 27, 2);
  split.add_edge(25, 27, 5);
  add("disconnected", std::move(split));
  return out;
}

}  // namespace csca
