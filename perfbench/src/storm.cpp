// storm: a multi-source TTL storm on a weighted grid under
// UniformDelay(0.1, 0.9). The handler is trivial, so the queue, the
// event order, cross-shard transport, GVT and rollback do almost all
// the work. Delays are continuous, but the FIFO clamp still lands many
// arrivals on a busy channel at exactly the previous arrival's time.
// Lookahead is positive (0.1 w), so conservative windows can form.
#include <algorithm>
#include <map>

#include "graph/generators.h"
#include "par/partition.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/sync_engine.h"
#include "engines.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSide = 64;  // grid is kSide x kSide
constexpr int kSourceRows = 2;  // sources on a 2 x 4 lattice
constexpr int kSourceCols = 4;
constexpr std::int64_t kTtl = 7;
constexpr double kDelayLo = 0.1;
constexpr double kDelayHi = 0.9;

// Re-floods every incident edge while ttl > 0; classes alternate by TTL
// parity (the timewarp table's storm), so both ledger classes move.
class StormProcess final : public Process {
 public:
  StormProcess(const std::vector<char>* sources, std::int64_t ttl)
      : sources_(sources), ttl_(ttl) {}
  void on_start(csca::Context& ctx) override {
    if (!(*sources_)[static_cast<std::size_t>(ctx.self())]) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(csca::Context& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, ctx.self()}}, cls);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<StormProcess>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const StormProcess&>(saved);
  }

 private:
  const std::vector<char>* sources_;
  std::int64_t ttl_;
};

// The same storm in the pulse domain; event count and cost match the
// asynchronous run because neither depends on the interleaving.
class SyncStorm final : public csca::SyncProcess {
 public:
  SyncStorm(const std::vector<char>* sources, std::int64_t ttl)
      : sources_(sources), ttl_(ttl) {}
  void on_start(csca::SyncContext& ctx) override {
    if (!(*sources_)[static_cast<std::size_t>(ctx.self())]) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(csca::SyncContext& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, ctx.self()}}, cls);
    }
  }

 private:
  const std::vector<char>* sources_;
  std::int64_t ttl_;
};

struct StormInput {
  Graph graph{0};
  std::vector<char> sources;
};

// Sources sit on an even lattice, each jittered inside its cell by the
// seed, so every shard of any balanced partition gets storm traffic.
StormInput make_input(std::uint64_t seed) {
  csca::Rng rng(csca::derive_stream_seed(seed, 1));
  StormInput in;
  in.graph = csca::grid_graph(kSide, kSide, csca::WeightSpec::uniform(1, 4),
                              rng);
  in.sources.assign(static_cast<std::size_t>(kSide * kSide), 0);
  const int rows = kSide / kSourceRows;
  const int cols = kSide / kSourceCols;
  for (int i = 0; i < kSourceRows; ++i) {
    for (int j = 0; j < kSourceCols; ++j) {
      const int r = i * rows + rows / 2 +
                    static_cast<int>(rng.uniform_int(-rows / 4, rows / 4));
      const int c = j * cols + cols / 2 +
                    static_cast<int>(rng.uniform_int(-cols / 4, cols / 4));
      in.sources[static_cast<std::size_t>(r * kSide + c)] = 1;
    }
  }
  return in;
}

ProcessFactory storm_factory(const StormInput& in) {
  const std::vector<char>* sources = &in.sources;
  return [sources](NodeId) {
    return std::make_unique<StormProcess>(sources, kTtl);
  };
}

SyncFactory sync_factory(const StormInput& in) {
  const std::vector<char>* sources = &in.sources;
  return [sources](NodeId) {
    return std::make_unique<SyncStorm>(sources, kTtl);
  };
}

csca::ScheduleSpec storm_schedule(std::uint64_t seed) {
  return {"uniform[0.1,0.9)", seed,
          [] { return csca::make_uniform_delay(kDelayLo, kDelayHi); },
          {}, {}};
}

}  // namespace

void run_storm(const Options& opts, Gate& gate, Report& report) {
  const Deadline deadline(opts.seconds);
  const bool trace = opts.trace;
  LayerTally tally;
  LayerTally* tr = trace ? &tally : nullptr;

  HostSpeed host;
  // Set-up: the input graph and every engine's construction.
  std::vector<double> graph_build;
  SetupTimer setup([&] {
    const auto t0 = Clock::now();
    const StormInput input =
        make_input(csca::derive_stream_seed(opts.seed, 0));
    graph_build.push_back(seconds_since(t0));
    const auto p0 = Clock::now();
    csca::partition_shards(input.graph, 4);
    tally.partition_s.push_back(seconds_since(p0));
    const csca::ScheduleSpec spec = storm_schedule(1);
    csca::Network net(input.graph, storm_factory(input), spec.make_delay(), 1);
    net.set_keyed_delays(true);
    csca::SyncEngine sync(input.graph, sync_factory(input));
    csca::ShardEngine s1(input.graph, storm_factory(input), spec.make_delay(),
                         1, csca::ShardEngine::Options{1, 1, {}});
    csca::ShardEngine s4(input.graph, storm_factory(input), spec.make_delay(),
                         1, csca::ShardEngine::Options{4, kThreads, {}});
    csca::TimeWarpEngine tw(
        input.graph, storm_factory(input), spec.make_delay(), 1,
        csca::TimeWarpEngine::Options{4, kThreads, 256, {}});
    return seconds_since(t0);
  });
  StormInput in = make_input(csca::derive_stream_seed(opts.seed, 0));
  const double graph_bytes = static_cast<double>(in.graph.memory_bytes());

  // The storm-regime sweep tables (smoke grids: deterministic rows).
  // The scale table runs once per trial, repeated to 50 ms. The timewarp
  // table hands every barrier round of its zero-lookahead storms to a
  // worker thread, so, like the threaded backends below, it runs on the
  // first trial only and stays out of tables_s.
  TableTimer tables({"timewarp", "scale"}, /*smoke=*/true, gate,
                    {"timewarp"}, /*min_s=*/0.05);

  // Each trial draws a fresh input (weights, sources, delay seed) from
  // the workload seed, so a run averages over inputs as well as time.
  // seq and sync run every trial. The threaded backends run on the first
  // trial only: each must equal the seq ledger there, and their
  // throughput (per-layer metrics) is set against the seq run just
  // before each. The end-to-end figures are medians over the later
  // trials, which run seq and sync alone, so a run always makes at least
  // two trials; a traced run makes one. peak_rss_mib is the memory a
  // trial adds at its peak (what the threaded engines leave behind in
  // the allocator varies from run to run, so the process peak does not
  // repeat).
  std::vector<double> seq_rate, sync_rate;
  std::map<Backend, BackendTimes> par;
  std::vector<double> run_ms;
  std::vector<double> rss;
  double trial_secs = 0;
  double first_trial_s = 0;
  double events = 0;
  int trial = 0;
  while (trial == 0 ||
         (!trace && (trial == 1 || deadline.remaining() > trial_secs))) {
    const auto trial_start = Clock::now();
    const bool timed = trace || trial > 0;
    const double rss0 = restart_peak_rss();
    if (trial > 0) {
      in = make_input(csca::derive_stream_seed(opts.seed, trial));
    }
    const ProcessFactory factory = storm_factory(in);
    const csca::ScheduleSpec spec =
        storm_schedule(csca::derive_stream_seed(opts.seed, 100 + trial));
    const std::string label = "storm trial " + std::to_string(trial);

    // Every seq run of a trial must produce the same ledger.
    RunStats ref;
    const auto seq_run = [&](bool first) {
      gate.attempt();
      const EngineRun run =
          run_seq(in.graph, factory, nullptr, spec,
                  SeqSetup{nullptr, false, false, false}, first ? tr : nullptr);
      gate.expect(!run.failed && run.stats.events > 0, label + " seq failed");
      if (first) {
        ref = run.stats;
      } else {
        gate.same_ledger(ref, run.stats, label + " seq rerun");
      }
      events = static_cast<double>(run.stats.events);
      if (timed) {
        seq_rate.push_back(events / run.plain_run_s);
        run_ms.push_back(1e3 * run.plain_run_s);
      }
      return run.plain_run_s;
    };

    seq_run(true);
    {
      gate.attempt();
      SpanTotals handler;
      csca::SyncEngine eng(in.graph, timed_sync_factory(
                                         sync_factory(in), trace ? &handler
                                                                 : nullptr));
      const auto t0 = Clock::now();
      const RunStats stats = eng.run();
      const double secs = seconds_since(t0);
      if (timed) sync_rate.push_back(static_cast<double>(stats.events) / secs);
      gate.same_events_and_cost(ref, stats, label + " sync");
      if (trace) {
        tally.sync_events += static_cast<double>(stats.events);
        tally.sync_run_s += secs;
        tally.sync_handler_ns += static_cast<double>(handler.ns());
        tally.sync_handler_calls += static_cast<double>(handler.count());
      }
    }

    const std::vector<Backend> threaded =
        trial == 0
            ? std::vector<Backend>{Backend::kShard1, Backend::kShard4,
                                   Backend::kTw4}
            : std::vector<Backend>{};
    for (const Backend b : threaded) {
      const double seq_s = seq_run(false);
      gate.attempt();
      const EngineRun run =
          run_par(b, in.graph, factory, nullptr, spec, nullptr, tr);
      const std::string what = label + " " + backend_name(b);
      if (!gate.expect(!run.failed, what + " failed")) continue;
      gate.same_ledger(ref, run.stats, what);
      par[b].add(static_cast<double>(run.stats.events), run.plain_run_s,
                 seq_s);
    }

    tables.rep(/*untotalled_too=*/trial == 0);
    if (timed) rss.push_back(peak_rss_mib() - rss0);
    setup.top_up(deadline);
    host.top_up(deadline);
    trial_secs = seconds_since(trial_start);
    if (trial == 0) first_trial_s = trial_secs;
    ++trial;
  }
  tables.report(opts, report);
  report.metric("setup_s", setup.median_s(), "s");

  report.fact("trials", std::to_string(trial));
  report.fact("first_trial_s", std::to_string(first_trial_s));
  report.fact("events_per_trial",
              std::to_string(static_cast<std::int64_t>(events)));
  report.metric("seq_events_per_s", median(seq_rate), "1/s");
  report.metric("sync_events_per_s", median(sync_rate), "1/s");
  for (const Backend b : {Backend::kShard1, Backend::kShard4, Backend::kTw4}) {
    const std::string name = backend_name(b);
    report.metric(name + "_events_per_s", par[b].per_second(), "1/s");
    report.metric(name + "_vs_seq", par[b].vs_seq(), "ratio");
  }
  report.metric("run_ms_p50", quantile(run_ms, 0.5), "ms");
  report.metric("run_ms_p90", quantile(run_ms, 0.9), "ms");
  report.fact("run_ms_samples", std::to_string(run_ms.size()));
  report.metric("peak_rss_mib", median(rss), "MiB");
  host.normalize(report);
  if (!trace) return;

  report.metric("graph.build_s", median(graph_build), "s");
  report.metric("graph.bytes", graph_bytes, "bytes");
  tally.emit(report);
}

}  // namespace perfbench
