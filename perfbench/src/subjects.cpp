#include "subjects.h"

#include <algorithm>
#include <sstream>

#include "conn/dfs.h"
#include "conn/flood.h"
#include "fault/reliable_link.h"
#include "graph/families.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/tree.h"
#include "mst/ghs.h"
#include "spt/bellman_ford.h"
#include "spt/recur.h"
#include "sync/synchronizer.h"

namespace perfbench {

namespace {

std::string join(const std::vector<std::int64_t>& xs) {
  std::ostringstream os;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << (i > 0 ? "," : "") << xs[i];
  }
  return os.str();
}

template <typename T>
T& proto_as(ProcessHost& host, NodeId v) {
  return dynamic_cast<T&>(protocol_process(host, v));
}

Digest flood_digest(const Graph& g) {
  return [&g](ProcessHost& host, std::vector<std::string>& violations) {
    int reached = 0;
    std::vector<EdgeId> parents(static_cast<std::size_t>(g.node_count()),
                                csca::kNoEdge);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = proto_as<csca::FloodProcess>(host, v);
      if (p.reached()) ++reached;
      parents[static_cast<std::size_t>(v)] = p.parent_edge();
    }
    bool spanning = false;
    try {
      spanning = csca::RootedTree::from_parent_edges(g, 0, std::move(parents))
                     .spanning();
    } catch (const std::exception& e) {
      violations.push_back(std::string("first-receipt edges: ") + e.what());
    }
    if (reached != g.node_count()) violations.push_back("flood missed nodes");
    std::ostringstream os;
    os << "reached=" << reached << "/" << g.node_count()
       << " spanning=" << (spanning ? 1 : 0);
    return os.str();
  };
}

Digest dfs_digest(const Graph& g) {
  return [&g](ProcessHost& host, std::vector<std::string>& violations) {
    std::vector<std::int64_t> tree;
    int visited = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = proto_as<csca::DfsProcess>(host, v);
      if (p.visited()) ++visited;
      if (p.parent_edge() != csca::kNoEdge) tree.push_back(p.parent_edge());
    }
    std::sort(tree.begin(), tree.end());
    const auto& root = proto_as<csca::DfsProcess>(host, 0);
    if (visited != g.node_count() || !root.done()) {
      violations.push_back("dfs did not visit every node");
    }
    std::ostringstream os;
    os << "visited=" << visited << " tree=[" << join(tree)
       << "] w=" << root.center_estimate() << " done=" << root.done();
    return os.str();
  };
}

Digest ghs_digest(const Graph& g) {
  return [&g](ProcessHost& host, std::vector<std::string>& violations) {
    NodeId leader = csca::kNoNode;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto& p = proto_as<csca::GhsProcess>(host, v);
      if (!p.done()) {
        violations.push_back("node " + std::to_string(v) +
                             " never terminated");
        return std::string("unterminated");
      }
      if (v == 0) leader = p.leader();
      if (p.leader() != leader) violations.push_back("leader disagreement");
    }
    std::vector<std::int64_t> mst;
    Weight w = 0;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& pu = proto_as<csca::GhsProcess>(host, g.edge(e).u);
      const auto& pv = proto_as<csca::GhsProcess>(host, g.edge(e).v);
      if (pu.branch(e) != pv.branch(e)) {
        violations.push_back("branch state disagrees on edge " +
                             std::to_string(e));
      }
      if (pu.branch(e)) {
        mst.push_back(e);
        w += g.weight(e);
      }
    }
    std::vector<EdgeId> oracle = csca::kruskal_mst(g);
    std::sort(oracle.begin(), oracle.end());
    if (!std::equal(mst.begin(), mst.end(), oracle.begin(), oracle.end(),
                    [](std::int64_t a, EdgeId b) {
                      return a == static_cast<std::int64_t>(b);
                    })) {
      violations.push_back("MST differs from the Kruskal oracle");
    }
    std::ostringstream os;
    os << "mst=[" << join(mst) << "] w=" << w;
    return os.str();
  };
}

Digest spt_recur_digest(const Graph& g) {
  return [&g](ProcessHost& host, std::vector<std::string>& violations) {
    std::vector<std::int64_t> dist;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      dist.push_back(proto_as<csca::SptRecurProcess>(host, v).dist());
    }
    if (dist != csca::dijkstra(g, 0).dist) {
      violations.push_back("distances differ from the Dijkstra oracle");
    }
    return "dist=[" + join(dist) + "]";
  };
}

// Owns what a synchronizer subject's hosts point into.
struct SyncOwned {
  Graph ng{0};
  std::vector<Weight> orig_w;
  std::unique_ptr<csca::SynchronizedNetwork> snet;
};

csca::SynchronizerKind sync_kind(const std::string& subject) {
  if (subject == "spt_synch") return csca::SynchronizerKind::kGammaW;
  if (subject == "bf_alpha") return csca::SynchronizerKind::kAlpha;
  return csca::SynchronizerKind::kBeta;
}

}  // namespace

Process& protocol_process(ProcessHost& host, NodeId v) {
  Process* p = &host.process(v);
  for (;;) {
    if (auto* timed = dynamic_cast<TimedProcess*>(p)) {
      p = &timed->inner();
    } else if (auto* arq = dynamic_cast<csca::ArqHost*>(p)) {
      p = &arq->inner();
    } else {
      return *p;
    }
  }
}

SubjectCase make_subject_case(const std::string& subject, const Graph& g,
                              const csca::ScheduleSpec& spec) {
  SubjectCase c;
  c.subject = subject;
  c.graph = &g;
  if (subject == "flood") {
    c.factory = [](NodeId v) {
      return std::make_unique<csca::FloodProcess>(v, 0);
    };
    c.digest = flood_digest(g);
  } else if (subject == "dfs") {
    c.factory = [](NodeId v) {
      return std::make_unique<csca::DfsProcess>(v, 0);
    };
    c.digest = dfs_digest(g);
  } else if (subject == "ghs" || subject == "mst_fast") {
    const csca::GhsMode mode = subject == "ghs"
                                   ? csca::GhsMode::kSerialScan
                                   : csca::GhsMode::kParallelGuess;
    c.factory = [&g, mode](NodeId v) {
      return std::make_unique<csca::GhsProcess>(g, v, mode);
    };
    c.digest = ghs_digest(g);
  } else if (subject == "spt_recur") {
    const Weight tau = std::max<Weight>(1, g.max_weight());
    c.factory = [&g, tau](NodeId v) {
      return std::make_unique<csca::SptRecurProcess>(g, v, 0, tau);
    };
    c.digest = spt_recur_digest(g);
  } else {
    // Synchronizer-hosted in-synch Bellman-Ford (check/subjects.cpp's
    // run_synchronized_bf): a pulse-domain run supplies the pulse
    // budget t_pi, then the synchronizer hosts the same protocol on an
    // asynchronous engine.
    const csca::SynchronizerKind kind = sync_kind(subject);
    auto owned = std::make_shared<SyncOwned>();
    owned->ng = kind == csca::SynchronizerKind::kGammaW
                    ? csca::normalized_copy(g)
                    : g;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      owned->orig_w.push_back(g.weight(e));
    }
    const std::vector<Weight>* orig_w = &owned->orig_w;
    c.has_sync = true;
    c.enforce_in_synch = kind == csca::SynchronizerKind::kGammaW;
    c.sync_factory = [orig_w](NodeId v) {
      return std::make_unique<csca::InSynchBellmanFord>(v, 0, orig_w);
    };
    c.oracle_dist = csca::dijkstra(g, 0).dist;
    c.graph = &owned->ng;
    c.keep_alive = owned;
    csca::SyncEngine ref(owned->ng, c.sync_factory, c.enforce_in_synch);
    const auto t_pi =
        static_cast<std::int64_t>(ref.run().completion_time) + 1;
    owned->snet = std::make_unique<csca::SynchronizedNetwork>(
        owned->ng, c.sync_factory, kind, /*k=*/2, t_pi, spec.make_delay(),
        spec.seed);
    c.factory = owned->snet->host_factory(c.sync_factory);
    const std::vector<Weight> oracle = c.oracle_dist;
    c.digest = [oracle](ProcessHost& host,
                        std::vector<std::string>& violations) {
      UnwrapHost view(host);
      std::vector<std::int64_t> dist;
      for (NodeId v = 0; v < host.graph().node_count(); ++v) {
        dist.push_back(dynamic_cast<csca::InSynchBellmanFord&>(
                           csca::SynchronizedNetwork::hosted_in(view, v))
                           .dist());
      }
      if (dist != oracle) {
        violations.push_back("distances differ from the Dijkstra oracle");
      }
      return "dist=[" + join(dist) + "]";
    };
  }
  return c;
}

SyncRun run_sync(const SubjectCase& c, SpanTotals* handler) {
  SyncRun out;
  csca::SyncEngine eng(*c.graph, timed_sync_factory(c.sync_factory, handler),
                       c.enforce_in_synch);
  const auto t0 = Clock::now();
  out.stats = eng.run();
  out.seconds = seconds_since(t0);
  out.valid = true;
  for (NodeId v = 0; v < c.graph->node_count(); ++v) {
    const auto& bf =
        dynamic_cast<csca::InSynchBellmanFord&>(sync_inner(eng, v));
    out.valid = out.valid &&
                bf.dist() == c.oracle_dist[static_cast<std::size_t>(v)];
  }
  return out;
}

std::vector<csca::ScheduleSpec> seeded_portfolio(std::uint64_t seed) {
  std::vector<csca::ScheduleSpec> out = csca::default_portfolio();
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k].seed = csca::derive_stream_seed(seed, 1000 + k);
  }
  return out;
}

}  // namespace perfbench
