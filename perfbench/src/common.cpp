#include <algorithm>
#include <thread>

#include "bench_harness/tables.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& subject_names() {
  static const std::vector<std::string> names = {
      "flood", "dfs", "ghs", "mst_fast", "spt_recur", "spt_synch",
      "bf_alpha", "bf_beta"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"seq_events_per_s", "1/s"},
      {"sync_events_per_s", "1/s"},
      {"run_ms_p50", "ms"},
      {"run_ms_p90", "ms"},
      {"tables_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // The threaded backends' throughput, from untraced runs. Every
        // barrier round hands off between threads, so on a shared host
        // these follow the host's scheduling latency too closely to
        // carry an end-to-end bound.
        {"shard1_events_per_s", "1/s"},
        {"shard4_events_per_s", "1/s"},
        {"tw4_events_per_s", "1/s"},
        {"shard1_vs_seq", "ratio"},
        {"shard4_vs_seq", "ratio"},
        {"tw4_vs_seq", "ratio"},
        {"graph.build_s", "s"},
        {"graph.bytes", "bytes"},
        {"sim.net.self_ns_per_event", "ns"},
        {"sim.net.handler_ns_per_event", "ns"},
        {"sim.delay.draws", "count"},
        {"sim.delay.ns_per_draw", "ns"},
        {"sim.queue.peak_depth", "count"},
        {"sim.queue.eventheap_ns_per_op", "ns"},
        {"sim.queue.calqueue_ns_per_op", "ns"},
        {"sim.order.tie_frac", "ratio"},
        {"sim.sync.self_ns_per_event", "ns"},
        {"par.partition_s", "s"},
        {"par.shard.rounds", "count"},
        {"par.shard.wave_rounds", "count"},
        {"par.shard.events_per_round", "count"},
        {"par.shard.cross_msgs_frac", "ratio"},
        {"par.shard.handler_busy_frac", "ratio"},
        {"par.shard.self_ns_per_event", "ns"},
        {"par.tw.gvt_rounds", "count"},
        {"par.tw.ms_per_gvt_round", "ms"},
        {"par.tw.rollbacks", "count"},
        {"par.tw.rolled_back_events", "count"},
        {"par.tw.anti_messages", "count"},
        {"par.tw.commit_efficiency", "ratio"},
        {"par.tw.snapshot_ns_per_event", "ns"},
        {"par.tw.handler_busy_frac", "ratio"},
        {"par.tw.state_bytes", "bytes"},
        {"fault.injector_build_s", "s"},
        {"fault.drops", "count"},
        {"fault.dups", "count"},
        {"fault.garbles", "count"},
        {"fault.byzantine", "count"},
        {"fault.arq.overhead_ratio", "ratio"},
        {"check.observer_ns_per_event", "ns"},
        {"check.final_ms", "ms"},
        {"check.digest_ms", "ms"},
        {"control.restabilize.epochs", "count"},
        {"control.restabilize.rebuilds", "count"},
        {"control.restabilize.ms_per_epoch", "ms"},
    };
    for (const std::string& subject : subject_names()) {
      s.push_back({"proto." + subject + ".handler_ns_per_event", "ns"});
      s.push_back({"proto." + subject + ".events", "count"});
    }
    for (const char* id :
         {"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "S3", "S4",
          "S5", "A1", "fault", "fault_ctl", "churn", "timewarp", "scale"}) {
      s.push_back({std::string("tables.") + id + "_ms", "ms"});
    }
    s.push_back({"host.calibration_ms", "ms"});
    s.push_back({"trace.seq_events_per_s_untraced", "1/s"});
    s.push_back({"trace.seq_events_per_s_traced", "1/s"});
    s.push_back({"trace.overhead_frac", "ratio"});
    return s;
  }();
  return specs;
}

TableTimer::TableTimer(const std::vector<std::string>& ids, bool smoke,
                       Gate& gate, const std::vector<std::string>& untotalled,
                       double min_s)
    : smoke_(smoke), min_s_(min_s), gate_(gate) {
  const std::vector<csca::bench::SweepSpec> all =
      csca::bench::builtin_tables();
  for (const std::string& id : ids) {
    const csca::bench::SweepSpec* spec = csca::bench::find_table(all, id);
    gate_.attempt();
    if (gate_.expect(spec != nullptr, "table " + id + " is not registered")) {
      specs_.push_back(*spec);
      totalled_.push_back(std::find(untotalled.begin(), untotalled.end(),
                                    id) == untotalled.end());
    }
  }
  per_table_.resize(specs_.size());
}

void TableTimer::rep(bool untotalled_too) {
  const csca::bench::SweepRunner runner({/*jobs=*/1, smoke_});
  double total = 0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!totalled_[i] && !untotalled_too) continue;
    const csca::bench::SweepSpec& spec = specs_[i];
    gate_.attempt();
    const auto t0 = Clock::now();
    csca::bench::TableResult result = runner.run(spec);
    int runs = 1;
    while (result.pass() && seconds_since(t0) < min_s_) {
      result = runner.run(spec);
      ++runs;
    }
    const double secs = seconds_since(t0) / runs;
    if (!result.pass()) {
      std::string detail;
      for (const auto& row : result.rows) {
        if (row.pass()) continue;
        detail += " " + row.spec.name(spec.param_name);
        if (row.failed) detail += " (" + row.error + ")";
      }
      gate_.fail("table " + spec.table + ": " +
                 std::to_string(result.failed_check_count()) +
                 " bound check(s) failed:" + detail);
    }
    per_table_[i].push_back(secs);
    if (totalled_[i]) total += secs;
  }
  totals_.push_back(total);
}

void TableTimer::report(const Options& opts, Report& report) {
  while (totals_.size() < 3) rep();
  report.metric("tables_s", median(totals_), "s");
  if (!opts.trace) return;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    report.metric("tables." + specs_[i].table + "_ms",
                  1e3 * median(per_table_[i]), "ms");
  }
}

void report_threads(Report& report) {
  report.fact("hardware_concurrency",
              std::to_string(std::thread::hardware_concurrency()));
  report.fact("threads", "{\"seq\": 1, \"sync\": 1, \"shard1\": 1, "
                         "\"shard4\": " +
                             std::to_string(kThreads) +
                             ", \"tw4\": " + std::to_string(kThreads) +
                             "}");
}

}  // namespace perfbench
