#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>

#include "par/calqueue.h"
#include "sim/event_heap.h"

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  const double pos = std::clamp(q * (n + 1) - 1, 0.0, n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = MetricValue{value, unit};
}

void Report::fact(const std::string& name, const std::string& json_value) {
  facts_.emplace_back(name, json_value);
}

std::string describe(const RunStats& s) {
  std::ostringstream os;
  os << "events=" << s.events << " msgs=" << s.algorithm_messages << "/"
     << s.control_messages << "/" << s.recovery_messages
     << " cost=" << s.algorithm_cost << "/" << s.control_cost << "/"
     << s.recovery_cost << " time=" << s.completion_time;
  return os.str();
}

void Gate::fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

bool Gate::expect(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

bool Gate::same_ledger(const RunStats& ref, RunStats got,
                       const std::string& label) {
  if (inject_ == "ledger" && !ledger_injected_) {
    ledger_injected_ = true;
    got.control_cost += 1;
  }
  const bool same = ref.algorithm_messages == got.algorithm_messages &&
                    ref.control_messages == got.control_messages &&
                    ref.recovery_messages == got.recovery_messages &&
                    ref.algorithm_cost == got.algorithm_cost &&
                    ref.control_cost == got.control_cost &&
                    ref.recovery_cost == got.recovery_cost &&
                    ref.events == got.events &&
                    ref.completion_time == got.completion_time;
  return expect(same, "ledger mismatch " + label + ": keyed seq {" +
                          describe(ref) + "} vs {" + describe(got) + "}");
}

bool Gate::same_events_and_cost(const RunStats& ref, const RunStats& got,
                                const std::string& label) {
  return expect(ref.events == got.events &&
                    ref.total_cost() == got.total_cost(),
                "events/cost mismatch " + label + ": {" + describe(ref) +
                    "} vs {" + describe(got) + "}");
}

bool Gate::same_digest(const std::string& ref, std::string got,
                       const std::string& label) {
  if (inject_ == "digest" && !digest_injected_) {
    digest_injected_ = true;
    got += "#perturbed";
  }
  return expect(ref == got, "digest mismatch " + label + ": \"" + ref +
                                "\" vs \"" + got + "\"");
}

// ---------------------------------------------------------------------------

std::size_t SpanTotals::slot_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine % 16;
}

std::int64_t SpanTotals::ns() const {
  std::int64_t total = 0;
  for (const Slot& s : slots_) total += s.ns.load(std::memory_order_relaxed);
  return total;
}

std::int64_t SpanTotals::count() const {
  std::int64_t total = 0;
  for (const Slot& s : slots_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

double span_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> batches;
    for (int b = 0; b < 9; ++b) {
      constexpr int kPairs = 20000;
      std::int64_t acc = 0;
      for (int i = 0; i < kPairs; ++i) {
        const std::int64_t t0 = now_ns();
        acc += now_ns() - t0;
      }
      batches.push_back(static_cast<double>(acc) / kPairs);
    }
    return median(batches);
  }();
  return overhead;
}

double handler_ns_per_event(double ns, double calls, double events) {
  if (events <= 0) return 0;
  return std::max(0.0, ns - calls * span_overhead_ns()) / events;
}

void TimedProcess::on_start(csca::Context& ctx) {
  const std::int64_t t0 = now_ns();
  inner_->on_start(ctx);
  handler_->add(now_ns() - t0);
}

void TimedProcess::on_message(csca::Context& ctx, const Message& m) {
  const std::int64_t t0 = now_ns();
  inner_->on_message(ctx, m);
  handler_->add(now_ns() - t0);
}

std::unique_ptr<Process> TimedProcess::save_state() const {
  const std::int64_t t0 = now_ns();
  std::unique_ptr<Process> copy = inner_->save_state();
  if (copy == nullptr) return nullptr;
  auto out = std::make_unique<TimedProcess>(std::move(copy), handler_,
                                            snapshot_);
  snapshot_->add(now_ns() - t0);
  return out;
}

void TimedProcess::restore_state(const Process& saved) {
  const std::int64_t t0 = now_ns();
  inner_->restore_state(
      *dynamic_cast<const TimedProcess&>(saved).inner_);
  snapshot_->add(now_ns() - t0);
}

ProcessFactory timed_factory(ProcessFactory inner, SpanTotals* handler,
                             SpanTotals* snapshot) {
  if (handler == nullptr) return inner;
  return [inner = std::move(inner), handler,
          snapshot](NodeId v) -> std::unique_ptr<Process> {
    return std::make_unique<TimedProcess>(inner(v), handler, snapshot);
  };
}

void TimedSyncProcess::on_start(csca::SyncContext& ctx) {
  const std::int64_t t0 = now_ns();
  inner_->on_start(ctx);
  handler_->add(now_ns() - t0);
}

void TimedSyncProcess::on_message(csca::SyncContext& ctx, const Message& m) {
  const std::int64_t t0 = now_ns();
  inner_->on_message(ctx, m);
  handler_->add(now_ns() - t0);
}

void TimedSyncProcess::on_wakeup(csca::SyncContext& ctx) {
  const std::int64_t t0 = now_ns();
  inner_->on_wakeup(ctx);
  handler_->add(now_ns() - t0);
}

SyncFactory timed_sync_factory(SyncFactory inner, SpanTotals* handler) {
  if (handler == nullptr) return inner;
  return [inner = std::move(inner),
          handler](NodeId v) -> std::unique_ptr<csca::SyncProcess> {
    return std::make_unique<TimedSyncProcess>(inner(v), handler);
  };
}

csca::SyncProcess& sync_inner(csca::SyncEngine& eng, NodeId v) {
  csca::SyncProcess& p = eng.process(v);
  if (auto* timed = dynamic_cast<TimedSyncProcess*>(&p)) return timed->inner();
  return p;
}

Process& UnwrapHost::process(NodeId v) {
  Process& p = host_.process(v);
  if (auto* timed = dynamic_cast<TimedProcess*>(&p)) return timed->inner();
  return p;
}

double TimedDelay::delay(Weight w, csca::Rng& rng) {
  ++draws_;
  return inner_->delay(w, rng);
}

double TimedDelay::delay_on(EdgeId e, Weight w, csca::Rng& rng) {
  ++draws_;
  return inner_->delay_on(e, w, rng);
}

double TimedDelay::delay_keyed(EdgeId e, Weight w, std::uint64_t key) const {
  ++draws_;
  if (recorded_.size() < kMaxRecorded) recorded_.push_back(Draw{e, w, key});
  return inner_->delay_keyed(e, w, key);
}

double TimedDelay::replay_ns_per_draw() const {
  if (recorded_.empty()) return 0;
  std::vector<double> per_draw;
  double checksum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (const Draw& d : recorded_) {
      checksum += inner_->delay_keyed(d.e, d.w, d.key);
    }
    per_draw.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(recorded_.size()));
  }
  if (checksum < 0) std::fprintf(stderr, "unreachable\n");
  return median(per_draw);
}

// ---------------------------------------------------------------------------

template <typename Fn>
void ObserverHub::forward(Fn&& fn) {
  if (children_.empty()) return;
  if (!trace_) {
    for (csca::InvariantObserver* c : children_) fn(*c);
    return;
  }
  const std::int64_t t0 = now_ns();
  for (csca::InvariantObserver* c : children_) fn(*c);
  observer_ns_ += now_ns() - t0;
  ++observer_calls_;
}

void ObserverHub::on_send(const csca::Network& net, NodeId from, EdgeId e,
                          MsgClass cls, double delay, double arrival) {
  if (queue_ops_ != nullptr) queue_ops_->push_back(arrival);
  forward([&](csca::InvariantObserver& c) {
    c.on_send(net, from, e, cls, delay, arrival);
  });
}

void ObserverHub::on_self_schedule(const csca::Network& net, NodeId v,
                                   double delay) {
  if (queue_ops_ != nullptr) queue_ops_->push_back(net.now() + delay);
  forward([&](csca::InvariantObserver& c) {
    c.on_self_schedule(net, v, delay);
  });
}

void ObserverHub::on_deliver(const csca::Network& net, NodeId to,
                             const Message& m, double t) {
  if (trace_) {
    ++deliveries_;
    if (t == last_t_) ++ties_;
    last_t_ = t;
  }
  if (queue_ops_ != nullptr) queue_ops_->push_back(-1);
  forward([&](csca::InvariantObserver& c) { c.on_deliver(net, to, m, t); });
}

void ObserverHub::on_finish(const csca::Network& net, NodeId v, double t) {
  forward([&](csca::InvariantObserver& c) { c.on_finish(net, v, t); });
}

void ObserverHub::on_drop(const csca::Network& net, NodeId from, EdgeId e,
                          MsgClass cls, csca::FaultDropReason reason) {
  ++drops_;
  forward([&](csca::InvariantObserver& c) {
    c.on_drop(net, from, e, cls, reason);
  });
}

void ObserverHub::on_duplicate(const csca::Network& net, NodeId from,
                               EdgeId e, double arrival) {
  ++dups_;
  if (queue_ops_ != nullptr) queue_ops_->push_back(arrival);
  forward([&](csca::InvariantObserver& c) {
    c.on_duplicate(net, from, e, arrival);
  });
}

void ObserverHub::on_garble(const csca::Network& net, NodeId from, EdgeId e,
                            double arrival) {
  ++garbles_;
  forward([&](csca::InvariantObserver& c) {
    c.on_garble(net, from, e, arrival);
  });
}

void ObserverHub::on_byzantine(const csca::Network& net, NodeId from,
                               EdgeId e, bool forged, double arrival) {
  ++byzantine_;
  forward([&](csca::InvariantObserver& c) {
    c.on_byzantine(net, from, e, forged, arrival);
  });
}

// ---------------------------------------------------------------------------

namespace {

struct Item {
  double t = 0;
  std::uint32_t seq = 0;
};
struct ItemTime {
  double operator()(const Item& it) const { return it.t; }
};
struct ItemAfter {
  bool operator()(const Item& a, const Item& b) const {
    return a.t > b.t || (a.t == b.t && a.seq > b.seq);
  }
};

// One replay through the sequential engine's queue; returns ns/op.
double replay_eventheap(const std::vector<double>& ops) {
  csca::EventHeap<Item> q;
  std::uint32_t seq = 0;
  double checksum = 0;
  const std::int64_t t0 = now_ns();
  for (double op : ops) {
    if (op >= 0) {
      q.push(csca::HeapKey{op, seq}, Item{op, seq});
      ++seq;
    } else if (!q.empty()) {
      q.top_key();
      checksum += q.pop().t;
    }
  }
  const std::int64_t ns = now_ns() - t0;
  if (checksum < 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(ns) / static_cast<double>(ops.size());
}

double replay_calqueue(const std::vector<double>& ops) {
  csca::TieredCalQueue<Item, ItemTime, ItemAfter> q;
  std::uint32_t seq = 0;
  double checksum = 0;
  const std::int64_t t0 = now_ns();
  for (double op : ops) {
    if (op >= 0) {
      q.push(Item{op, seq});
      ++seq;
    } else if (!q.empty()) {
      checksum += q.pop().t;
    }
  }
  const std::int64_t ns = now_ns() - t0;
  if (checksum < 0) std::fprintf(stderr, "unreachable\n");
  return static_cast<double>(ns) / static_cast<double>(ops.size());
}

}  // namespace

QueueReplay replay_queue(const std::vector<double>& ops) {
  QueueReplay out;
  out.ops = static_cast<std::int64_t>(ops.size());
  if (ops.empty()) return out;
  std::vector<double> heap_ns;
  std::vector<double> cal_ns;
  for (int rep = 0; rep < 3; ++rep) {
    heap_ns.push_back(replay_eventheap(ops));
    cal_ns.push_back(replay_calqueue(ops));
  }
  out.eventheap_ns_per_op = median(heap_ns);
  out.calqueue_ns_per_op = median(cal_ns);
  return out;
}

namespace {

// A "VmXXX:" line of /proc/self/status, in MiB (0 if absent).
double status_mib(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream is(line.substr(key.size()));
      double kib = 0;
      is >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double restart_peak_rss() {
  malloc_trim(0);
  // "5" resets the VmHWM the status file reports (Linux 4.0 and later).
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mib("VmRSS:");
}

double peak_rss_mib() { return status_mib("VmHWM:"); }

double cross_shard_fraction(const ProcessHost& host,
                            const std::vector<int>& shard_of) {
  const Graph& g = host.graph();
  std::int64_t total = 0;
  std::int64_t cross = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const std::int64_t n = host.edge_message_count(e);
    total += n;
    const auto& edge = g.edge(e);
    if (shard_of[static_cast<std::size_t>(edge.u)] !=
        shard_of[static_cast<std::size_t>(edge.v)]) {
      cross += n;
    }
  }
  return total > 0 ? static_cast<double>(cross) / static_cast<double>(total)
                   : 0;
}

}  // namespace perfbench
