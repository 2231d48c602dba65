// Default invariant checker for the asynchronous engine.
//
// Attach a DefaultInvariantChecker to a Network (Network::set_observer)
// before the first step and it mechanically re-verifies, at every event,
// the invariants the paper's model (§1.3) and the engine's FIFO-channel
// contract promise — independently of the engine's own bookkeeping:
//
//   * sends happen only on edges incident to the sender;
//   * DelayModel outputs are non-NaN and within [0, w(e)];
//   * per-directed-edge channels are FIFO: every delivery matches the
//     oldest outstanding send on its channel, at exactly the arrival
//     time the engine committed to at send time;
//   * the simulated clock never runs backwards;
//   * self-deliveries return to their scheduler, with delay >= 0;
//   * no *spontaneous* sends after a node's local finish(): a finished
//     node may still respond while a message is being delivered to it
//     (DFS reject replies, GHS halt stragglers), but must not originate
//     traffic from on_start after finishing;
//   * ledger conservation (check_final): the final RunStats totals
//     equal the sum over edges of per-class message counts times edge
//     weights, the engine's per-edge counters match the checker's
//     independent tally, and a quiescent network has no channel with an
//     undelivered send.
//
// Under fault injection (Network::set_faults) the checker adapts: drop
// notifications join the send tally (attempts are charged), duplicate
// deliveries match against recorded phantom arrivals, and event
// conservation accounts for both. Garbled and equivocated sends are
// tallied per directed channel: they are the only legal sources of
// checksum-invalid ARQ frames. Give the checker the same injector
// via set_faults and it additionally verifies that no send leaves a
// crashed node, nothing is delivered over a link that is down, and
// nothing reaches a crashed node. check_arq verifies exactly-once FIFO
// delivery above the reliable-link layer (fault/reliable_link.h)
// against an independent receiver model built from the observed DATA
// frames.
//
// Violations are collected as human-readable strings (or thrown
// immediately with fail_fast), so the schedule-exploration checker can
// report them alongside the schedule that produced them.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/network.h"

namespace csca {

class DefaultInvariantChecker final : public InvariantObserver {
 public:
  struct Options {
    /// Throw InvariantError at the first violation instead of
    /// collecting it (useful to fail a test at the offending event).
    bool fail_fast = false;
    /// Cap on collected violation strings; the rest are counted only.
    std::size_t max_violations = 64;
  };

  DefaultInvariantChecker() = default;
  explicit DefaultInvariantChecker(Options opts) : opts_(opts) {}

  void on_send(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               double delay, double arrival) override;
  void on_self_schedule(const Network& net, NodeId v,
                        double delay) override;
  void on_deliver(const Network& net, NodeId to, const Message& m,
                  double t) override;
  void on_finish(const Network& net, NodeId v, double t) override;
  void on_drop(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               FaultDropReason reason) override;
  void on_duplicate(const Network& net, NodeId from, EdgeId e,
                    double arrival) override;
  void on_garble(const Network& net, NodeId from, EdgeId e,
                 double arrival) override;
  void on_byzantine(const Network& net, NodeId from, EdgeId e,
                    bool forged, double arrival) override;

  /// Gives the checker the injector attached to the network so it can
  /// independently verify the crash / outage rules (no sends from a
  /// crashed node, no delivery on a down link or to a crashed node).
  /// Optional; the drop/duplicate bookkeeping works without it.
  void set_faults(const FaultInjector* f) { faults_ = f; }

  /// End-of-run checks (ledger conservation, channel drain). Call after
  /// run(); the channel-drain check only applies when net.idle().
  void check_final(const Network& net);

  /// Exactly-once FIFO above the ARQ layer: every node's ArqHost
  /// receiver state (next expected seq, inner deliveries) must match
  /// the checker's independent per-channel replay of the DATA frames it
  /// observed, and never exceed what the peer's sender side framed.
  /// Call after run() on a host whose processes were built by
  /// arq_factory.
  void check_arq(ProcessHost& host);

  bool ok() const { return violations_.empty() && suppressed_ == 0; }
  const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Violations dropped beyond Options::max_violations.
  std::size_t suppressed() const { return suppressed_; }

  /// Garbled sends recorded via on_garble.
  std::int64_t garbles_seen() const { return garbles_seen_; }
  /// Equivocated frames queued (on_byzantine with forged == false,
  /// plus the duplicate copies of an equivocated send).
  std::int64_t equivocations_seen() const { return equivocations_seen_; }
  /// Checksum-invalid ARQ frames observed at delivery. The masking rule
  /// (check_final) requires, per channel, invalid deliveries <=
  /// recorded garbles + equivocated frames: those are the only legal
  /// sources of invalid frames (a forgery re-patches the checksum), and
  /// everything they touched that ARQ *can* mask is exactly what its
  /// checksums catch.
  std::int64_t invalid_arq_frames_seen() const { return invalid_seen_; }

 private:
  // FIFO of outstanding arrival times on one directed channel. An idle
  // channel holds an empty vector, which owns no heap block; the head
  // index makes pop_front O(1) and the storage is reused once drained.
  class ArrivalFifo {
   public:
    bool empty() const { return head_ == items_.size(); }
    std::size_t size() const { return items_.size() - head_; }
    double front() const { return items_[head_]; }
    double back() const { return items_.back(); }
    void push_back(double t) { items_.push_back(t); }
    void pop_front();

   private:
    std::vector<double> items_;
    std::size_t head_ = 0;
  };

  void ensure_sized(const Network& net);
  void report(std::string what);
  // Directed channel id for a message from `from` over edge e.
  std::size_t channel_of(const Network& net, NodeId from, EdgeId e) const;

  Options opts_;
  std::vector<std::string> violations_;
  std::size_t suppressed_ = 0;

  // Outstanding arrival times per directed channel, in send order.
  std::vector<ArrivalFifo> channels_;
  // Phantom (duplicate) arrivals per directed channel, unordered: a
  // duplicate is clamped behind the original but later traffic can
  // still be delivered around it.
  std::vector<std::multiset<double>> dup_arrivals_;
  // Independent per-channel replay of ARQ DATA frames: next expected
  // seq and the out-of-order seqs seen so far. Only checksum-valid
  // frames replay — receivers discard invalid ones, and so does the
  // model.
  std::vector<std::int64_t> arq_expected_;
  std::vector<std::set<std::int64_t>> arq_buffered_;
  // Garbled sends, equivocated frames and invalid-ARQ-frame deliveries
  // per directed channel (the masking rule compares them in
  // check_final).
  std::vector<std::int64_t> garbled_sent_;
  std::vector<std::int64_t> equivocated_;
  std::vector<std::int64_t> arq_invalid_;
  // Channel of the send whose hooks are firing, when that send was
  // equivocated: a duplicate split off it (on_duplicate follows
  // on_byzantine for the same send) is an equivocated frame too.
  static constexpr std::size_t kNoChannel = static_cast<std::size_t>(-1);
  std::size_t equivocating_channel_ = kNoChannel;
  // Independent per-edge tallies, indexed [class][edge].
  std::vector<std::int64_t> sent_algorithm_;
  std::vector<std::int64_t> sent_control_;
  std::vector<std::int64_t> sent_recovery_;
  std::int64_t deliveries_seen_ = 0;
  std::int64_t self_schedules_seen_ = 0;
  std::int64_t drops_seen_ = 0;
  std::int64_t dups_seen_ = 0;
  std::int64_t garbles_seen_ = 0;
  std::int64_t equivocations_seen_ = 0;
  std::int64_t invalid_seen_ = 0;
  const FaultInjector* faults_ = nullptr;
  double last_now_ = 0.0;
  // Node currently having a message delivered to it; sends by it are
  // reactive and exempt from the post-finish rule.
  NodeId delivering_to_ = kNoNode;
  bool sized_ = false;
};

}  // namespace csca
