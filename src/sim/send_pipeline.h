// The send pipeline every engine shares.
//
// The paper's cost model rests on one rule: a send on edge e costs
// w(e), billed to its class's side of the ledger whether or not the
// channel delivers it. plan_send is that rule together with everything
// the channel does to the send, written once: given one send it
// decides the fault fate, the delay draw, the FIFO-clamped arrival,
// the loss reason, the payload corruptions and the duplicate's arrival
// — and changes nothing. Each engine then carries the plan out its own
// way: the Network enqueues and fires its observer hooks, the
// ShardEngine routes to its local queue or an outbox, TimeWarp routes
// and journals, the SyncEngine enqueues pulse events.
//
// The fate order (docs/faults.md), which every engine's bit-identity
// with the keyed Network depends on:
//   1. a sender crashed at `now` sends nothing: no count, no charge;
//   2. otherwise the attempt is charged and consumes one send count;
//   3. channel drop, then link down at send time, before any draw;
//   4. the delay draw (range-checked) and the arrival rule;
//   5. link down at arrival, then receiver crashed at arrival;
//   6. a survivor commits the FIFO clamp and is corrupted: garble,
//      then byzantine, before the duplicate splits off;
//   7. a duplicate draws last, lands behind the original without
//      committing the clamp, is never charged, and is lost silently.
// An unkeyed Network draws from its shared stream in exactly this
// order (the primary draw only after step 3, then the duplicate's), so
// the golden-ledger stream is unchanged.
//
// With no fault injector the plan is the trivial one, and the fast
// path is forced inline into the engine's send (the compiler's own
// heuristics left the draw out of line): no call beyond the delay
// model's own.
#pragma once

#include <algorithm>
#include <cstdint>

#include "fault/fault_injector.h"
#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/message.h"
#include "util/rng.h"

namespace csca {

/// Why a fault swallowed a send attempt (see InvariantObserver::on_drop).
enum class FaultDropReason {
  kChannelDrop,      // keyed per-send drop draw
  kLinkDown,         // edge inside an outage interval at send or arrival
  kReceiverCrashed,  // destination crash-stops before the arrival time
};

/// One send: the edge, its endpoints and the directed channel.
struct SendSite {
  EdgeId e;
  Weight w;
  NodeId from;
  NodeId to;
  std::size_t channel;  ///< 2 * e + (from == u ? 0 : 1)
};

/// The site of a send by `from` on edge e; a process may only send on
/// its own incident edges.
inline SendSite send_site(const Graph& g, EdgeId e, NodeId from) {
  const Edge& edge = g.edge(e);
  require(edge.u == from || edge.v == from,
          "process may only send on its own incident edges");
  const bool forward = from == edge.u;
  return SendSite{e, edge.w, from, forward ? edge.v : edge.u,
                  static_cast<std::size_t>(2 * e) + (forward ? 0 : 1)};
}

/// What happens to one send.
struct SendPlan {
  /// False only for a crashed sender: nothing is counted or charged.
  bool charged = true;
  /// Charged but never delivered; the clamp is not committed.
  bool lost = false;
  FaultDropReason loss = FaultDropReason::kChannelDrop;  ///< when lost
  double delay = 0;    ///< raw delay of the primary copy
  double arrival = 0;  ///< arrival of the primary copy
  /// The arrival becomes the channel's FIFO clamp.
  bool commit_clamp = false;
  bool garble = false;
  FaultInjector::ByzantineFate byzantine = FaultInjector::ByzantineFate::kNone;
  /// A phantom copy of the corrupted primary arrives at dup_arrival.
  bool duplicate = false;
  double dup_arrival = 0;
};

/// Arrival rule of the asynchronous engines: one DelayModel draw per
/// copy, required to lie in [0, w(e)] (and at or above the model's
/// declared min_delay when `check_floor`, the conservative windows'
/// lookahead), then the FIFO clamp. An unkeyed Network draws from its
/// shared `stream`; every other engine draws keyed by (seed, channel,
/// send count).
struct DrawnArrival {
  static constexpr bool kFifo = true;

  DelayModel* model;
  Rng* stream;  ///< shared draw stream, or null for keyed draws
  std::uint64_t seed;
  bool check_floor;

  [[gnu::always_inline]] double first(const SendSite& s,
                                      std::uint64_t count) const {
    return checked(
        s, stream != nullptr
               ? model->delay_on(s.e, s.w, *stream)
               : model->delay_keyed(
                     s.e, s.w, channel_delay_key(seed, s.channel, count)));
  }
  double duplicate(const SendSite& s, std::uint64_t count,
                   const FaultInjector& faults) const {
    return checked(s, stream != nullptr
                          ? model->delay_on(s.e, s.w, *stream)
                          : model->delay_keyed(
                                s.e, s.w,
                                faults.dup_delay_key(s.channel, count)));
  }
  static double arrive(double now, double delay, double clamp) {
    return std::max(now + delay, clamp);
  }

 private:
  double checked(const SendSite& s, double d) const {
    require(d >= 0.0 && d <= static_cast<double>(s.w),
            "delay model produced delay outside [0, w(e)]");
    if (check_floor) {
      require(d >= model->min_delay(s.e, s.w),
              "delay model drew below its declared min_delay");
    }
    return d;
  }
};

/// Arrival rule of the weighted synchronous engine: a send at pulse p
/// arrives at p + w(e), and a duplicate one transmission later, at
/// p + 2w(e). Pulse channels need no clamp.
struct PulseArrival {
  static constexpr bool kFifo = false;

  double first(const SendSite& s, std::uint64_t /*count*/) const {
    return static_cast<double>(s.w);
  }
  double duplicate(const SendSite& s, std::uint64_t /*count*/,
                   const FaultInjector& /*faults*/) const {
    return 2.0 * static_cast<double>(s.w);
  }
  static double arrive(double now, double delay, double /*clamp*/) {
    return now + delay;
  }
};

/// The faulty half of plan_send, in fate order (see the top of this
/// file).
template <typename Arrival>
SendPlan plan_faulty_send(const SendSite& s, std::uint64_t count, double now,
                          double clamp, const FaultInjector& faults,
                          const Arrival& rule) {
  SendPlan p;
  const auto lose = [&p](FaultDropReason why) {
    p.lost = true;
    p.loss = why;
    return p;
  };
  if (faults.crashed(s.from, now)) {
    p.charged = false;
    return p;
  }
  const FaultInjector::SendFate fate = faults.send_fate(s.channel, count);
  if (fate.drop) return lose(FaultDropReason::kChannelDrop);
  if (faults.link_down(s.e, now)) return lose(FaultDropReason::kLinkDown);
  p.delay = rule.first(s, count);
  p.arrival = rule.arrive(now, p.delay, clamp);
  if (faults.link_down(s.e, p.arrival)) {
    return lose(FaultDropReason::kLinkDown);
  }
  if (faults.crashed(s.to, p.arrival)) {
    return lose(FaultDropReason::kReceiverCrashed);
  }
  p.commit_clamp = Arrival::kFifo;
  p.garble = fate.garble;
  if (faults.byzantine(s.from)) {
    p.byzantine = faults.byzantine_fate(s.channel, count);
  }
  if (fate.duplicate) {
    // Clamped behind the original, whose arrival is the committed clamp.
    p.dup_arrival =
        rule.arrive(now, rule.duplicate(s, count, faults), p.arrival);
    p.duplicate = !faults.link_down(s.e, p.dup_arrival) &&
                  !faults.crashed(s.to, p.dup_arrival);
  }
  return p;
}

/// Plans one send: `count` is the channel's send count before it,
/// `clamp` the channel's last committed arrival, `faults` null for a
/// fault-free run. Pure apart from the draws the arrival rule makes.
/// The fault-free plan is built inline; a faulted send continues in
/// plan_faulty_send.
template <typename Arrival>
[[gnu::always_inline]] inline SendPlan plan_send(
    const SendSite& s, std::uint64_t count, double now, double clamp,
    const FaultInjector* faults, const Arrival& rule) {
  if (faults != nullptr) {
    return plan_faulty_send(s, count, now, clamp, *faults, rule);
  }
  SendPlan p;
  p.delay = rule.first(s, count);
  p.arrival = rule.arrive(now, p.delay, clamp);
  p.commit_clamp = Arrival::kFifo;
  return p;
}

/// Applies the plan's corruptions to the primary copy: garble, then
/// byzantine. Engines call it before copying the duplicate, so a
/// duplicated equivocation delivers two identical copies. Keyed by
/// (channel, count), so every engine corrupts the same logical send
/// identically. `faults` may be null only for a fault-free plan.
inline void corrupt(const SendPlan& p, const FaultInjector* faults,
                    const SendSite& s, std::uint64_t count, Message& m) {
  if (p.garble) faults->garble(s.channel, count, m);
  if (p.byzantine == FaultInjector::ByzantineFate::kEquivocate) {
    faults->equivocate(s.channel, count, m);
  } else if (p.byzantine == FaultInjector::ByzantineFate::kForge) {
    faults->forge(s.channel, count, m);
  }
}

}  // namespace csca
