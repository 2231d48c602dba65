// Engine interfaces shared by the sequential Network and the sharded
// conservative engine (par/shard_engine.h).
//
// Protocols never see a concrete engine. They see two narrow surfaces:
//
//   * EngineBackend — the send side. A Context forwards a process's
//     send / schedule_self / finish calls to whichever backend created
//     it, so the same Process implementation runs unmodified on any
//     engine (including one backend per shard inside the parallel
//     engine, each with its own clock).
//   * ProcessHost — the result side. Everything the analysis layer
//     reads after (or between) runs: the graph, the cost ledger,
//     per-node processes and finish times, per-link message counts.
//     check/ digests are written against ProcessHost, which is what
//     lets one digest validate both engines bit-for-bit.
//
// Network implements both; ShardEngine implements ProcessHost and owns
// one internal EngineBackend per shard.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "graph/graph.h"
#include "sim/message.h"

namespace csca {

class EngineBackend;

/// The only window a protocol has onto the world: its own id, the local
/// clock, the topology, and sends over incident edges. Handed to Process
/// hooks by the engine; never stored by protocols beyond the call.
class Context {
 public:
  NodeId self() const { return self_; }
  double now() const;
  const Graph& graph() const;

  std::span<const EdgeId> incident() const {
    return graph().incident(self_);
  }
  /// Incident arcs (edge id, other endpoint) straight out of the CSR
  /// arrays — the zero-copy form of the incident()/neighbor() pair for
  /// per-hop loops (see graph/graph.h).
  NeighborView neighbors() const { return graph().neighbors(self_); }
  NodeId neighbor(EdgeId e) const { return graph().other(e, self_); }
  Weight edge_weight(EdgeId e) const { return graph().weight(e); }

  /// Sends m to the other endpoint of incident edge e. Costs w(e) in the
  /// ledger class cls. The class is deliberately not defaulted: the
  /// paper's analyses split every measure into algorithm vs control
  /// cost, so each send site must say which side of the ledger it bills
  /// (COST-1 in docs/analysis.md).
  void send(EdgeId e, Message m, MsgClass cls);

  /// Schedules m for delivery to this node itself after `delay` time
  /// units (>= 0). Local computation is free in the model, so this costs
  /// nothing in the ledger; it exists so protocols can defer work out of
  /// the current handler (e.g. the hybrid arbiter's resume).
  void schedule_self(double delay, Message m);

  /// Marks this node as locally finished (used for termination checks and
  /// per-node completion times). Idempotent.
  void finish();

 private:
  friend class EngineBackend;
  Context(EngineBackend& backend, NodeId self)
      : backend_(&backend), self_(self) {}
  EngineBackend* backend_;
  NodeId self_;
};

/// One per-node protocol instance. Implementations keep all their state as
/// members and interact exclusively through the Context passed to hooks.
class Process {
 public:
  virtual ~Process() = default;

  /// Invoked once at time 0, before any delivery.
  virtual void on_start(Context&) {}

  /// Invoked for each delivered message.
  virtual void on_message(Context&, const Message& m) = 0;

  /// Deep copy of the protocol state, for engines that need to undo
  /// deliveries (the optimistic backend in par/timewarp_engine.h saves
  /// before every speculative delivery and restores on rollback). The
  /// default returns null — "not supported" — and the optimistic engine
  /// refuses to host such a process; conservative engines never call
  /// it. Concrete protocols opt in with a two-line override pair
  /// (copy-construct / copy-assign).
  virtual std::unique_ptr<Process> save_state() const { return nullptr; }

  /// Restores this process to the state captured by save_state().
  /// `saved` is a value returned from save_state() on this same object.
  virtual void restore_state(const Process& saved) {
    (void)saved;
    require(false, "process does not implement restore_state");
  }
};

/// Builds the process for node v. Engines call it once per node.
using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;

/// The send side of an engine: what a Context needs to service protocol
/// calls. One instance per independent event loop — the sequential
/// Network is one backend, the sharded engine is one backend per shard
/// (each shard has its own clock and queue, so `engine_now` is a
/// per-shard question there).
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

 protected:
  /// Contexts are engine-internal; engines mint them per hook call.
  Context make_context(NodeId v) { return Context(*this, v); }

 private:
  friend class Context;
  virtual double engine_now() const = 0;
  virtual const Graph& engine_graph() const = 0;
  virtual void engine_send(NodeId from, EdgeId e, Message m,
                           MsgClass cls) = 0;
  virtual void engine_schedule_self(NodeId v, double delay, Message m) = 0;
  virtual void engine_finish(NodeId v) = 0;
};

inline double Context::now() const { return backend_->engine_now(); }
inline const Graph& Context::graph() const {
  return backend_->engine_graph();
}
inline void Context::send(EdgeId e, Message m, MsgClass cls) {
  backend_->engine_send(self_, e, std::move(m), cls);
}
inline void Context::schedule_self(double delay, Message m) {
  backend_->engine_schedule_self(self_, delay, std::move(m));
}
inline void Context::finish() { backend_->engine_finish(self_); }

/// The result side of an engine: post-run (and, for the sequential
/// engine, mid-run) access to everything the analysis layer measures.
/// All methods are single-threaded reads; the parallel engine's workers
/// are quiescent whenever a ProcessHost is handed out.
class ProcessHost {
 public:
  virtual ~ProcessHost() = default;

  virtual const Graph& graph() const = 0;

  /// Ledger accumulated so far (final after the run completes).
  virtual const RunStats& stats() const = 0;

  /// Post-run access to protocol state, e.g. a computed tree or output.
  virtual Process& process(NodeId v) = 0;

  template <typename T>
  T& process_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&process(v));
    require(p != nullptr, "process has unexpected concrete type");
    return *p;
  }

  virtual bool finished(NodeId v) const = 0;
  virtual double finish_time(NodeId v) const = 0;
  /// True iff every node called Context::finish().
  virtual bool all_finished() const = 0;
  /// Latest finish() timestamp across nodes; requires all_finished().
  virtual double last_finish_time() const = 0;

  /// Messages sent over edge e so far (both directions, all classes).
  /// Lets analyses measure per-link load — e.g. the congestion factor in
  /// clock synchronizer gamma*, which the paper bounds by the tree
  /// edge-cover's O(log n) sharing property.
  virtual std::int64_t edge_message_count(EdgeId e) const = 0;

  /// Messages of one ledger class sent over edge e. The paper's
  /// congestion analyses (gamma* sharing) reason about the protocol's
  /// own traffic, so per-link measures must not be polluted by
  /// transformer overhead running on the same network.
  virtual std::int64_t edge_message_count(EdgeId e, MsgClass cls) const = 0;

  /// max over edges of edge_message_count.
  virtual std::int64_t max_edge_message_count() const = 0;

  /// max over edges of edge_message_count(e, cls).
  virtual std::int64_t max_edge_message_count(MsgClass cls) const = 0;
};

/// The engines' ProcessHost base: the per-link accessors read the
/// engine's ChannelLedger, and throw PreconditionError for an edge id
/// outside [0, edge_count).
class LedgerHost : public ProcessHost {
 public:
  std::int64_t edge_message_count(EdgeId e) const final {
    return ledger_.edge_message_count(e);
  }
  std::int64_t edge_message_count(EdgeId e, MsgClass cls) const final {
    return ledger_.edge_message_count(e, cls);
  }
  std::int64_t max_edge_message_count() const final {
    return ledger_.max_edge_message_count();
  }
  std::int64_t max_edge_message_count(MsgClass cls) const final {
    return ledger_.max_edge_message_count(cls);
  }

 protected:
  explicit LedgerHost(int edge_count) : ledger_(edge_count) {}

  /// Per-channel message counts: charged attempts, dropped ones
  /// included (fault duplicates are not sends). Their per-channel
  /// totals are the send counts that key delay draws and fault fates.
  ChannelLedger ledger_;
};

}  // namespace csca
