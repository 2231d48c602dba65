#include "sim/network.h"

#include <algorithm>

namespace csca {

Network::Network(const Graph& g, const ProcessFactory& factory,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : Network(g, ProcessStore::from_factory(g.node_count(), factory),
              std::move(delay), seed) {}

Network::Network(const Graph& g, ProcessStore store,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : LedgerHost(g.edge_count()),
      graph_(&g),
      processes_(std::move(store)),
      delay_(std::move(delay)),
      rng_(seed),
      seed_(seed),
      last_arrival_(static_cast<std::size_t>(2 * g.edge_count()), 0.0),
      finish_time_(static_cast<std::size_t>(g.node_count()), -1.0) {
  require(delay_ != nullptr, "delay model must not be null");
  require(processes_.size() == g.node_count(),
          "process store size must match the node count");
  // Pre-size the tiered queue from the topology: wavefront workloads
  // hold O(n + m) deliveries in flight at peak, and million-event runs
  // should not pay repeated far-tier regrowth to discover that.
  queue_.reserve(static_cast<std::size_t>(g.node_count()) +
                 static_cast<std::size_t>(g.edge_count()));
}

void Network::set_keyed_delays(bool on) {
  require(!started_,
          "keyed-delay mode must be chosen before the first step");
  keyed_delays_ = on;
}

void Network::engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) {
  // Recovery passes re-bill everything the re-executed protocol sends
  // (see set_recovery_billing); the remap happens before any counter is
  // touched so the per-class ledgers stay conserved.
  if (recovery_billing_) cls = MsgClass::kRecovery;
  const SendSite site = send_site(*graph_, e, from);
  const std::uint64_t count = ledger_.sends(site.channel);
  double& clamp = last_arrival_[site.channel];
  const SendPlan plan = plan_send(
      site, count, now_, clamp, faults_,
      DrawnArrival{delay_.get(), keyed_delays_ ? nullptr : &rng_, seed_,
                   false});
  if (!plan.charged) return;
  ledger_.charge(site.channel, cls);
  stats_.charge(cls, site.w);
  if (plan.lost) {
    if (observer_) observer_->on_drop(*this, from, e, cls, plan.loss);
    return;
  }
  if (plan.commit_clamp) clamp = plan.arrival;
  m.from = from;
  m.edge = e;
  corrupt(plan, faults_, site, count, m);
  Message dup;
  if (plan.duplicate) dup = m;
  enqueue(plan.arrival, std::move(m));
  if (observer_) {
    observer_->on_send(*this, from, e, cls, plan.delay, plan.arrival);
    if (plan.garble) observer_->on_garble(*this, from, e, plan.arrival);
    if (plan.byzantine != FaultInjector::ByzantineFate::kNone) {
      const bool forged =
          plan.byzantine == FaultInjector::ByzantineFate::kForge;
      observer_->on_byzantine(*this, from, e, forged, plan.arrival);
    }
  }
  if (plan.duplicate) {
    enqueue(plan.dup_arrival, std::move(dup));
    if (observer_) observer_->on_duplicate(*this, from, e, plan.dup_arrival);
  }
}

void Network::set_faults(const FaultInjector* f) {
  require(!started_, "faults must be attached before the first step");
  faults_ = (f != nullptr && f->active()) ? f : nullptr;
  // Re-validate against *this* network's graph: the injector validated
  // at construction, but attaching it to a different topology would
  // silently mis-target every id-keyed event.
  if (faults_ != nullptr) faults_->plan().validate(*graph_);
}

void Network::engine_schedule_self(NodeId v, double delay, Message m) {
  require(delay >= 0.0, "self-delivery delay must be non-negative");
  // A timer that would fire at or after its owner's crash time dies
  // with the node: it is silently never queued (so crashed nodes hold
  // no pending retransmit timers and runs quiesce instead of hanging).
  if (faults_ != nullptr && faults_->crashed(v, now_ + delay)) return;
  m.from = v;
  m.edge = kNoEdge;
  enqueue(now_ + delay, std::move(m));
  if (observer_) observer_->on_self_schedule(*this, v, delay);
}

void Network::engine_finish(NodeId v) {
  double& t = finish_time_[static_cast<std::size_t>(v)];
  if (t < 0) {
    t = now_;
    if (observer_) observer_->on_finish(*this, v, now_);
  }
}

void Network::ensure_started() {
  if (started_) return;
  started_ = true;
  now_ = 0;
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    // A node crashed at time 0 never participates at all.
    if (faults_ != nullptr && faults_->crashed(v, 0.0)) continue;
    Context ctx = make_context(v);
    processes_.at(v).on_start(ctx);
  }
}

bool Network::step() {
  ensure_started();
  if (queue_.empty()) return false;
  deliver(queue_.top_key());
  return true;
}

void Network::deliver(HeapKey key) {
  now_ = key.t;
  const Message msg = queue_.pop();
  // The delivery target is not stored with the pooled node; an edge
  // message goes to the endpoint opposite its stamped sender, a
  // self-delivery back to the sender itself.
  const NodeId to =
      msg.edge == kNoEdge ? msg.from : graph_->other(msg.edge, msg.from);
  // completion_time is the paper's time measure: the clock of the last
  // *edge* delivery. Free self-deliveries (deferred local computation)
  // advance the clock but must not inflate the measured time.
  if (msg.edge != kNoEdge) stats_.completion_time = now_;
  ++stats_.events;
  if (observer_) observer_->on_deliver(*this, to, msg, now_);
  Context ctx = make_context(to);
  processes_.at(to).on_message(ctx, msg);
}

RunStats Network::run(double max_time) {
  ensure_started();
  // The loop peeks once per event: the key that passes the budget test
  // is handed straight to deliver() instead of being recomputed.
  while (!queue_.empty()) {
    const HeapKey key = queue_.top_key();
    if (key.t > max_time) break;
    deliver(key);
  }
  // Cut short by the budget: the slice consumed the full interval, so
  // advance the clock to the boundary (see the contract in network.h).
  // Events already queued beyond max_time stay queued for the resume.
  if (!queue_.empty() && now_ < max_time) now_ = max_time;
  return stats_;
}

bool Network::all_finished() const {
  return std::all_of(finish_time_.begin(), finish_time_.end(),
                     [](double t) { return t >= 0; });
}

double Network::last_finish_time() const {
  require(all_finished(), "not all nodes have finished");
  return *std::max_element(finish_time_.begin(), finish_time_.end());
}

}  // namespace csca
