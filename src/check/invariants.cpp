#include "check/invariants.h"

#include <cmath>
#include <sstream>

#include "fault/fault_injector.h"
#include "fault/reliable_link.h"

namespace csca {

namespace {
std::string at_time(double t) {
  std::ostringstream os;
  os << " (t=" << t << ")";
  return os.str();
}
}  // namespace

void DefaultInvariantChecker::ArrivalFifo::pop_front() {
  if (++head_ == items_.size()) {
    items_.clear();
    head_ = 0;
  } else if (head_ >= 64 && 2 * head_ >= items_.size()) {
    // Compact once the consumed prefix dominates, so a channel that is
    // never fully drained still holds O(outstanding) storage.
    items_.erase(items_.begin(),
                 items_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void DefaultInvariantChecker::ensure_sized(const Network& net) {
  if (sized_) return;
  sized_ = true;
  const auto m = static_cast<std::size_t>(net.graph().edge_count());
  channels_.resize(2 * m);
  dup_arrivals_.resize(2 * m);
  arq_expected_.assign(2 * m, 0);
  arq_buffered_.resize(2 * m);
  garbled_sent_.assign(2 * m, 0);
  equivocated_.assign(2 * m, 0);
  arq_invalid_.assign(2 * m, 0);
  sent_algorithm_.assign(m, 0);
  sent_control_.assign(m, 0);
  sent_recovery_.assign(m, 0);
}

void DefaultInvariantChecker::report(std::string what) {
  if (opts_.fail_fast) {
    ensure(false, "invariant violation: " + what);
  }
  if (violations_.size() < opts_.max_violations) {
    violations_.push_back(std::move(what));
  } else {
    ++suppressed_;
  }
}

std::size_t DefaultInvariantChecker::channel_of(const Network& net,
                                                NodeId from,
                                                EdgeId e) const {
  const Edge& edge = net.graph().edge(e);
  return static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
}

void DefaultInvariantChecker::on_send(const Network& net, NodeId from,
                                      EdgeId e, MsgClass cls,
                                      double delay, double arrival) {
  ensure_sized(net);
  equivocating_channel_ = kNoChannel;
  const Graph& g = net.graph();
  if (e < 0 || e >= g.edge_count()) {
    std::ostringstream os;
    os << "send on out-of-range edge " << e << " by node " << from
       << at_time(net.now());
    report(os.str());
    return;
  }
  const Edge& edge = g.edge(e);
  if (edge.u != from && edge.v != from) {
    std::ostringstream os;
    os << "node " << from << " sent on non-incident edge " << e << " ("
       << edge.u << "-" << edge.v << ")" << at_time(net.now());
    report(os.str());
  }
  const auto w = static_cast<double>(edge.w);
  if (std::isnan(delay) || delay < 0.0 || delay > w) {
    std::ostringstream os;
    os << "delay model produced " << delay << " outside [0, " << w
       << "] on edge " << e << at_time(net.now());
    report(os.str());
  }
  if (net.finished(from) && from != delivering_to_) {
    std::ostringstream os;
    os << "spontaneous send by finished node " << from << " on edge "
       << e << at_time(net.now());
    report(os.str());
  }
  if (faults_ != nullptr && faults_->crashed(from, net.now())) {
    std::ostringstream os;
    os << "send by node " << from << " on edge " << e
       << " after its crash" << at_time(net.now());
    report(os.str());
  }
  auto& chan = channels_[channel_of(net, from, e)];
  if (arrival < net.now() ||
      (!chan.empty() && arrival < chan.back())) {
    std::ostringstream os;
    os << "arrival " << arrival << " on edge " << e
       << " violates the FIFO clamp (now=" << net.now()
       << ", channel tail="
       << (chan.empty() ? net.now() : chan.back()) << ")";
    report(os.str());
  }
  chan.push_back(arrival);
  auto& tally = cls == MsgClass::kAlgorithm  ? sent_algorithm_
                : cls == MsgClass::kControl  ? sent_control_
                                             : sent_recovery_;
  ++tally[static_cast<std::size_t>(e)];
}

void DefaultInvariantChecker::on_self_schedule(const Network& net,
                                               NodeId v, double delay) {
  ensure_sized(net);
  ++self_schedules_seen_;
  if (std::isnan(delay) || delay < 0.0) {
    std::ostringstream os;
    os << "node " << v << " scheduled a self-delivery with delay "
       << delay << at_time(net.now());
    report(os.str());
  }
  if (net.finished(v) && v != delivering_to_) {
    std::ostringstream os;
    os << "spontaneous self-schedule by finished node " << v
       << at_time(net.now());
    report(os.str());
  }
}

void DefaultInvariantChecker::on_deliver(const Network& net, NodeId to,
                                         const Message& m, double t) {
  ensure_sized(net);
  ++deliveries_seen_;
  if (t < last_now_) {
    std::ostringstream os;
    os << "clock ran backwards: delivery at t=" << t << " after t="
       << last_now_;
    report(os.str());
  }
  last_now_ = t;
  if (m.edge == kNoEdge) {
    if (m.from != to) {
      std::ostringstream os;
      os << "self-delivery scheduled by node " << m.from
         << " delivered to node " << to << at_time(t);
      report(os.str());
    }
  } else if (m.edge < 0 || m.edge >= net.graph().edge_count()) {
    std::ostringstream os;
    os << "delivery over out-of-range edge " << m.edge << at_time(t);
    report(os.str());
  } else {
    const std::size_t ch = channel_of(net, m.from, m.edge);
    auto& chan = channels_[ch];
    auto& dups = dup_arrivals_[ch];
    if (!chan.empty() && chan.front() == t) {
      chan.pop_front();
    } else if (const auto dup_it = dups.find(t); dup_it != dups.end()) {
      // A phantom duplicate landing at its recorded arrival time.
      dups.erase(dup_it);
    } else if (chan.empty()) {
      std::ostringstream os;
      os << "delivery to node " << to << " over edge " << m.edge
         << " without a matching send" << at_time(t);
      report(os.str());
    } else {
      std::ostringstream os;
      os << "FIFO order violated on edge " << m.edge
         << ": oldest outstanding send arrives at " << chan.front()
         << " but a delivery happened" << at_time(t);
      report(os.str());
      chan.pop_front();
    }
    if (faults_ != nullptr) {
      if (faults_->link_down(m.edge, t)) {
        std::ostringstream os;
        os << "delivery over edge " << m.edge
           << " while the link is down" << at_time(t);
        report(os.str());
      }
      if (faults_->crashed(to, t)) {
        std::ostringstream os;
        os << "delivery to node " << to << " after its crash"
           << at_time(t);
        report(os.str());
      }
    }
    // Independent replay of the ARQ receiver: checksum-valid DATA
    // frame seqs must hand up a contiguous prefix per channel
    // (check_arq compares). Invalid frames are what receivers silently
    // discard, so they are tallied for the masking rule instead of
    // replayed.
    if (m.type == kArqData || m.type == kArqAck) {
      if (!arq_frame_valid(m)) {
        ++arq_invalid_[ch];
        ++invalid_seen_;
      } else if (m.type == kArqData) {
        std::int64_t& expected = arq_expected_[ch];
        if (const std::int64_t seq = m.data[0]; seq == expected) {
          ++expected;
          auto& buf = arq_buffered_[ch];
          while (buf.erase(expected) != 0) ++expected;
        } else if (seq > expected) {
          arq_buffered_[ch].insert(seq);
        }
      }
    }
    if (net.graph().other(m.edge, m.from) != to) {
      std::ostringstream os;
      os << "edge message from node " << m.from << " over edge "
         << m.edge << " delivered to node " << to
         << ", not the opposite endpoint" << at_time(t);
      report(os.str());
    }
  }
  delivering_to_ = to;
}

void DefaultInvariantChecker::on_drop(const Network& net, NodeId from,
                                      EdgeId e, MsgClass cls,
                                      FaultDropReason /*reason*/) {
  ensure_sized(net);
  ++drops_seen_;
  // The attempt is charged to the ledger even though nothing was
  // queued, so it joins the send tally — but not the channel queue.
  auto& tally = cls == MsgClass::kAlgorithm  ? sent_algorithm_
                : cls == MsgClass::kControl  ? sent_control_
                                             : sent_recovery_;
  ++tally[static_cast<std::size_t>(e)];
  const Edge& edge = net.graph().edge(e);
  if (edge.u != from && edge.v != from) {
    std::ostringstream os;
    os << "node " << from << " dropped-send on non-incident edge " << e
       << at_time(net.now());
    report(os.str());
  }
}

void DefaultInvariantChecker::on_duplicate(const Network& net,
                                           NodeId from, EdgeId e,
                                           double arrival) {
  ensure_sized(net);
  ++dups_seen_;
  if (arrival < net.now()) {
    std::ostringstream os;
    os << "duplicate on edge " << e << " scheduled into the past ("
       << arrival << ")" << at_time(net.now());
    report(os.str());
  }
  const std::size_t ch = channel_of(net, from, e);
  dup_arrivals_[ch].insert(arrival);
  if (ch == equivocating_channel_) {
    ++equivocated_[ch];
    ++equivocations_seen_;
  }
}

void DefaultInvariantChecker::on_garble(const Network& net, NodeId from,
                                        EdgeId e, double arrival) {
  ensure_sized(net);
  ++garbles_seen_;
  if (arrival < net.now()) {
    std::ostringstream os;
    os << "garbled send on edge " << e << " scheduled into the past ("
       << arrival << ")" << at_time(net.now());
    report(os.str());
  }
  ++garbled_sent_[channel_of(net, from, e)];
}

void DefaultInvariantChecker::on_byzantine(const Network& net,
                                           NodeId from, EdgeId e,
                                           bool forged,
                                           double /*arrival*/) {
  ensure_sized(net);
  // A forgery re-patches the ARQ checksum, so it never shows up as an
  // invalid frame; an equivocation leaves the checksum broken.
  if (forged) return;
  const std::size_t ch = channel_of(net, from, e);
  ++equivocated_[ch];
  ++equivocations_seen_;
  equivocating_channel_ = ch;
}

void DefaultInvariantChecker::on_finish(const Network& net, NodeId v,
                                        double t) {
  ensure_sized(net);
  if (t != net.now()) {
    std::ostringstream os;
    os << "node " << v << " finish time " << t
       << " differs from the clock " << net.now();
    report(os.str());
  }
}

void DefaultInvariantChecker::check_final(const Network& net) {
  ensure_sized(net);
  const Graph& g = net.graph();
  const RunStats& stats = net.stats();

  // Ledger conservation: RunStats totals vs the per-edge counters, and
  // the engine's counters vs this checker's independent tally.
  std::int64_t algo_msgs = 0;
  std::int64_t ctrl_msgs = 0;
  std::int64_t rec_msgs = 0;
  Weight algo_cost = 0;
  Weight ctrl_cost = 0;
  Weight rec_cost = 0;
  std::int64_t total_sends = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const std::int64_t a = net.edge_message_count(e, MsgClass::kAlgorithm);
    const std::int64_t c = net.edge_message_count(e, MsgClass::kControl);
    const std::int64_t r = net.edge_message_count(e, MsgClass::kRecovery);
    algo_msgs += a;
    ctrl_msgs += c;
    rec_msgs += r;
    algo_cost += a * g.weight(e);
    ctrl_cost += c * g.weight(e);
    rec_cost += r * g.weight(e);
    total_sends += a + c + r;
    if (a != sent_algorithm_[i] || c != sent_control_[i] ||
        r != sent_recovery_[i]) {
      std::ostringstream os;
      os << "edge " << e << " per-class counters (" << a << ", " << c
         << ", " << r << ") disagree with the observed sends ("
         << sent_algorithm_[i] << ", " << sent_control_[i] << ", "
         << sent_recovery_[i] << ")";
      report(os.str());
    }
  }
  if (algo_msgs != stats.algorithm_messages ||
      ctrl_msgs != stats.control_messages ||
      rec_msgs != stats.recovery_messages ||
      algo_cost != stats.algorithm_cost ||
      ctrl_cost != stats.control_cost ||
      rec_cost != stats.recovery_cost) {
    std::ostringstream os;
    os << "ledger conservation failed: per-edge sums give msgs=("
       << algo_msgs << ", " << ctrl_msgs << ", " << rec_msgs
       << ") cost=(" << algo_cost << ", " << ctrl_cost << ", "
       << rec_cost << ") but RunStats holds msgs=("
       << stats.algorithm_messages << ", " << stats.control_messages
       << ", " << stats.recovery_messages << ") cost=("
       << stats.algorithm_cost << ", " << stats.control_cost << ", "
       << stats.recovery_cost << ")";
    report(os.str());
  }
  if (stats.events != deliveries_seen_) {
    std::ostringstream os;
    os << "RunStats counts " << stats.events << " deliveries but "
       << deliveries_seen_ << " were observed (checker attached late?)";
    report(os.str());
  }
  if (net.idle()) {
    std::int64_t undelivered = 0;
    for (const auto& chan : channels_) {
      undelivered += static_cast<std::int64_t>(chan.size());
    }
    if (undelivered != 0) {
      std::ostringstream os;
      os << undelivered
         << " sent message(s) never delivered on a quiescent network";
      report(os.str());
    }
    std::int64_t undelivered_dups = 0;
    for (const auto& dups : dup_arrivals_) {
      undelivered_dups += static_cast<std::int64_t>(dups.size());
    }
    if (undelivered_dups != 0) {
      std::ostringstream os;
      os << undelivered_dups
         << " phantom duplicate(s) never delivered on a quiescent "
            "network";
      report(os.str());
    }
    // The masking rule: invalid ARQ frames can only come from
    // recorded garbles or equivocations on the same directed channel.
    // A duplicate of a corrupted frame repeats the corruption: the
    // fate bands are disjoint, so a garbled send is never also
    // duplicated, while a duplicated equivocation counts both copies
    // (on_duplicate).
    for (std::size_t ch = 0; ch < arq_invalid_.size(); ++ch) {
      if (arq_invalid_[ch] > garbled_sent_[ch] + equivocated_[ch]) {
        std::ostringstream os;
        os << "channel " << ch << " delivered " << arq_invalid_[ch]
           << " invalid ARQ frame(s) but only " << garbled_sent_[ch]
           << " garble(s) and " << equivocated_[ch]
           << " equivocation(s) were recorded on it";
        report(os.str());
      }
    }
    // Attempts that were dropped never become deliveries; surviving
    // duplicates add deliveries the tally never saw as sends.
    if (total_sends - drops_seen_ + dups_seen_ + self_schedules_seen_ !=
        deliveries_seen_) {
      std::ostringstream os;
      os << "event conservation failed: " << total_sends << " sends - "
         << drops_seen_ << " drops + " << dups_seen_ << " duplicates + "
         << self_schedules_seen_ << " self-schedules vs "
         << deliveries_seen_ << " deliveries at quiescence";
      report(os.str());
    }
  }
}

void DefaultInvariantChecker::check_arq(ProcessHost& host) {
  const Graph& g = host.graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto* arq = dynamic_cast<ArqHost*>(&host.process(v));
    if (arq == nullptr) {
      std::ostringstream os;
      os << "check_arq: node " << v << " is not wrapped by arq_factory";
      report(os.str());
      continue;
    }
    for (const EdgeId e : g.incident(v)) {
      const NodeId peer_node = g.other(e, v);
      const Edge& edge = g.edge(e);
      // The directed channel carrying DATA from the peer to v.
      const std::size_t ch = static_cast<std::size_t>(2 * e) +
                             (peer_node == edge.u ? 0 : 1);
      const std::int64_t expected = arq->next_expected_in(e);
      const std::int64_t delivered = arq->delivered_up(e);
      if (delivered != expected) {
        std::ostringstream os;
        os << "ARQ exactly-once broken at node " << v << " edge " << e
           << ": delivered " << delivered << " inner messages but next "
           << "expected seq is " << expected;
        report(os.str());
      }
      if (sized_ && expected != arq_expected_[ch]) {
        std::ostringstream os;
        os << "ARQ receiver state at node " << v << " edge " << e
           << " (next expected " << expected
           << ") diverges from the checker's frame replay ("
           << arq_expected_[ch] << ")";
        report(os.str());
      }
      if (auto* peer = dynamic_cast<ArqHost*>(&host.process(peer_node));
          peer != nullptr && delivered > peer->data_sent(e)) {
        std::ostringstream os;
        os << "ARQ delivered " << delivered << " inner messages at node "
           << v << " edge " << e << " but the peer only framed "
           << peer->data_sent(e);
        report(os.str());
      }
    }
  }
}

}  // namespace csca
