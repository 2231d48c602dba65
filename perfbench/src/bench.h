// Shared plumbing of the repository benchmark: options, timing,
// statistics, the correctness gate, and the tracing wrappers that time
// calls into each layer from outside the simulator.
//
// Nothing here reaches into src/: every span is taken around a public
// entry point (a Process hook, a DelayModel draw, an InvariantObserver
// callback, an engine's run()), so the benchmark measures the program
// exactly as its users drive it.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/engine.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/sync_engine.h"
#include "sim/sync_process.h"

namespace perfbench {

using csca::EdgeId;
using csca::Graph;
using csca::Message;
using csca::MsgClass;
using csca::NodeId;
using csca::Process;
using csca::ProcessFactory;
using csca::ProcessHost;
using csca::RunStats;
using csca::Weight;

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Worker threads of shard4 and tw4 (and their shard count). The
/// benchmark refuses to run on a machine with fewer hardware threads.
constexpr int kThreads = 4;

/// Command-line configuration of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string inject;        ///< "", "ledger" or "digest" (gate self-test)
  std::string report_path;   ///< optional full JSON report
};

// ---------------------------------------------------------------------------
// Statistics

/// Quantile by the "exclusive" method of Python's statistics.quantiles
/// (position q * (n + 1), linear interpolation, clamped to the ends).
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
double sum(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// Results

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// What one run reports: the correctness tally, the metrics of the
/// selected mode, and free-form facts for the full report file.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fact(const std::string& name, const std::string& json_value);
  const std::map<std::string, MetricValue>& metrics() const {
    return metrics_;
  }
  const std::vector<std::pair<std::string, std::string>>& facts() const {
    return facts_;
  }

 private:
  std::map<std::string, MetricValue> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
};

/// The correctness gate. Every checked operation (an engine run, a
/// table, a digest comparison group) is one attempt; a mismatch or an
/// escaped exception marks it failed. With Options::inject set, the
/// first ledger (or digest) comparison is fed a deliberately perturbed
/// value, which the gate must catch — the benchmark's self-test.
class Gate {
 public:
  explicit Gate(std::string inject) : inject_(std::move(inject)) {}

  void attempt() { ++attempted_; }
  void fail(const std::string& what);
  /// Fails unless ok; returns ok.
  bool expect(bool ok, const std::string& what);
  /// Field-for-field RunStats comparison against the keyed reference.
  bool same_ledger(const RunStats& ref, RunStats got,
                   const std::string& label);
  /// Events and cost only (the pulse engine's storm contract).
  bool same_events_and_cost(const RunStats& ref, const RunStats& got,
                            const std::string& label);
  bool same_digest(const std::string& ref, std::string got,
                   const std::string& label);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::string inject_;
  bool ledger_injected_ = false;
  bool digest_injected_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

std::string describe(const RunStats& s);

// ---------------------------------------------------------------------------
// Tracing

/// Accumulated span time and count, safe to add to from the parallel
/// engines' workers: each thread lands on its own cache line.
class SpanTotals {
 public:
  void add(std::int64_t ns) {
    Slot& s = slots_[slot_index()];
    s.ns.fetch_add(ns, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
  }
  std::int64_t ns() const;
  std::int64_t count() const;

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> ns{0};
    std::atomic<std::int64_t> count{0};
  };
  static std::size_t slot_index();
  std::array<Slot, 16> slots_;
};

/// Cost of one empty span (two clock reads), subtracted from per-call
/// averages so tiny layers are not dominated by the timer itself.
double span_overhead_ns();

/// Span time per event with the timer's own cost taken out per span.
double handler_ns_per_event(double ns, double calls, double events);

/// Times a Process's hooks (the handler span, sends included) and, on
/// the optimistic engine, its save_state / restore_state snapshots.
class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner, SpanTotals* handler,
               SpanTotals* snapshot)
      : inner_(std::move(inner)), handler_(handler), snapshot_(snapshot) {}

  void on_start(csca::Context& ctx) override;
  void on_message(csca::Context& ctx, const Message& m) override;
  std::unique_ptr<Process> save_state() const override;
  void restore_state(const Process& saved) override;

  Process& inner() { return *inner_; }

 private:
  std::unique_ptr<Process> inner_;
  SpanTotals* handler_;
  SpanTotals* snapshot_;
};

/// Wraps every process the factory builds in a TimedProcess; a null
/// handler total returns the factory unchanged (the untraced path).
ProcessFactory timed_factory(ProcessFactory inner, SpanTotals* handler,
                             SpanTotals* snapshot);

/// The pulse-domain counterpart of TimedProcess.
class TimedSyncProcess final : public csca::SyncProcess {
 public:
  TimedSyncProcess(std::unique_ptr<csca::SyncProcess> inner,
                   SpanTotals* handler)
      : inner_(std::move(inner)), handler_(handler) {}
  void on_start(csca::SyncContext& ctx) override;
  void on_message(csca::SyncContext& ctx, const Message& m) override;
  void on_wakeup(csca::SyncContext& ctx) override;
  csca::SyncProcess& inner() { return *inner_; }

 private:
  std::unique_ptr<csca::SyncProcess> inner_;
  SpanTotals* handler_;
};

using SyncFactory =
    std::function<std::unique_ptr<csca::SyncProcess>(NodeId)>;
SyncFactory timed_sync_factory(SyncFactory inner, SpanTotals* handler);

/// The protocol process of node v on a SyncEngine, unwrapped.
csca::SyncProcess& sync_inner(csca::SyncEngine& eng, NodeId v);

/// ProcessHost view that hands out the processes inside TimedProcess
/// wrappers, so digests written against concrete protocol types read a
/// traced run exactly like an untraced one.
class UnwrapHost final : public ProcessHost {
 public:
  explicit UnwrapHost(ProcessHost& host) : host_(host) {}
  const Graph& graph() const override { return host_.graph(); }
  const RunStats& stats() const override { return host_.stats(); }
  Process& process(NodeId v) override;
  bool finished(NodeId v) const override { return host_.finished(v); }
  double finish_time(NodeId v) const override {
    return host_.finish_time(v);
  }
  bool all_finished() const override { return host_.all_finished(); }
  double last_finish_time() const override {
    return host_.last_finish_time();
  }
  std::int64_t edge_message_count(EdgeId e) const override {
    return host_.edge_message_count(e);
  }
  std::int64_t edge_message_count(EdgeId e, MsgClass cls) const override {
    return host_.edge_message_count(e, cls);
  }
  std::int64_t max_edge_message_count() const override {
    return host_.max_edge_message_count();
  }
  std::int64_t max_edge_message_count(MsgClass cls) const override {
    return host_.max_edge_message_count(cls);
  }

 private:
  ProcessHost& host_;
};

/// Forwarding DelayModel that counts every draw and records the keyed
/// draws' arguments. A single draw is cheaper than a clock read, so the
/// per-draw cost comes from replaying the recorded draws through the
/// wrapped model in a tight loop. Single engine thread only (the
/// sequential Network).
class TimedDelay final : public csca::DelayModel {
 public:
  explicit TimedDelay(std::unique_ptr<csca::DelayModel> inner)
      : inner_(std::move(inner)) {}
  double delay(Weight w, csca::Rng& rng) override;
  double delay_on(EdgeId e, Weight w, csca::Rng& rng) override;
  double delay_keyed(EdgeId e, Weight w, std::uint64_t key) const override;
  double min_delay(EdgeId e, Weight w) const override {
    return inner_->min_delay(e, w);
  }
  std::int64_t draws() const { return draws_; }
  /// Nanoseconds per keyed draw, replayed (0 when none was keyed).
  double replay_ns_per_draw() const;

 private:
  struct Draw {
    EdgeId e;
    Weight w;
    std::uint64_t key;
  };
  static constexpr std::size_t kMaxRecorded = std::size_t{1} << 20;
  std::unique_ptr<csca::DelayModel> inner_;
  mutable std::int64_t draws_ = 0;
  mutable std::vector<Draw> recorded_;
};

/// The benchmark's observer on the sequential Network. It forwards
/// every hook to the attached checkers (timing them when tracing) and,
/// when tracing, tallies fault fates, exact-time delivery ties, and
/// records the queue's (push arrival, pop) key stream for the replay
/// probe.
class ObserverHub final : public csca::InvariantObserver {
 public:
  explicit ObserverHub(bool trace) : trace_(trace) {}
  void add(csca::InvariantObserver* child) { children_.push_back(child); }
  /// Push arrival times (>= 0) and pops (-1), in engine order.
  void record_queue(std::vector<double>* ops) { queue_ops_ = ops; }

  void on_send(const csca::Network& net, NodeId from, EdgeId e,
               MsgClass cls, double delay, double arrival) override;
  void on_self_schedule(const csca::Network& net, NodeId v,
                        double delay) override;
  void on_deliver(const csca::Network& net, NodeId to, const Message& m,
                  double t) override;
  void on_finish(const csca::Network& net, NodeId v, double t) override;
  void on_drop(const csca::Network& net, NodeId from, EdgeId e,
               MsgClass cls, csca::FaultDropReason reason) override;
  void on_duplicate(const csca::Network& net, NodeId from, EdgeId e,
                    double arrival) override;
  void on_garble(const csca::Network& net, NodeId from, EdgeId e,
                 double arrival) override;
  void on_byzantine(const csca::Network& net, NodeId from, EdgeId e,
                    bool forged, double arrival) override;

  std::int64_t observer_ns() const { return observer_ns_; }
  std::int64_t observer_calls() const { return observer_calls_; }
  std::int64_t deliveries() const { return deliveries_; }
  std::int64_t ties() const { return ties_; }
  std::int64_t drops() const { return drops_; }
  std::int64_t dups() const { return dups_; }
  std::int64_t garbles() const { return garbles_; }
  std::int64_t byzantine() const { return byzantine_; }

 private:
  template <typename Fn>
  void forward(Fn&& fn);

  bool trace_;
  std::vector<csca::InvariantObserver*> children_;
  std::vector<double>* queue_ops_ = nullptr;
  std::int64_t observer_ns_ = 0;
  std::int64_t observer_calls_ = 0;
  std::int64_t deliveries_ = 0;
  std::int64_t ties_ = 0;
  double last_t_ = -1;
  std::int64_t drops_ = 0;
  std::int64_t dups_ = 0;
  std::int64_t garbles_ = 0;
  std::int64_t byzantine_ = 0;
};

/// Replays a recorded (push, pop) stream through the sequential
/// Network's EventHeap and the optimistic engine's TieredCalQueue;
/// returns nanoseconds per queue operation for each.
struct QueueReplay {
  double eventheap_ns_per_op = 0;
  double calqueue_ns_per_op = 0;
  std::int64_t ops = 0;
};
QueueReplay replay_queue(const std::vector<double>& ops);

// ---------------------------------------------------------------------------
// Process-level facts

/// Peak resident set size of this process since it started or since
/// the last restart_peak_rss(), in MiB.
double peak_rss_mib();

/// Returns freed heap memory to the system, restarts the peak count of
/// peak_rss_mib(), and returns the resident set size after that, in MiB.
double restart_peak_rss();

/// Fraction of messages that crossed a shard boundary: per-edge message
/// counts of a finished run, split by the engine's node partition.
double cross_shard_fraction(const ProcessHost& host,
                            const std::vector<int>& shard_of);

}  // namespace perfbench
