// The benchmark's three workloads and the metric catalogue they fill.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "bench_harness/sweep.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics: every workload reports all of them untraced.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics: every workload reports all of them traced; a
/// layer the workload does not exercise reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// The 8 built-in check subjects, in builtin_subjects() order.
const std::vector<std::string>& subject_names();

void run_storm(const Options& opts, Gate& gate, Report& report);
void run_protocols(const Options& opts, Gate& gate, Report& report);
void run_faults(const Options& opts, Gate& gate, Report& report);

// ---------------------------------------------------------------------------
// Helpers shared by the workloads

/// Wall-clock deadline of the measured part of a run.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : start_(Clock::now()), seconds_(seconds) {}
  double elapsed() const { return seconds_since(start_); }
  double remaining() const { return seconds_ - elapsed(); }

 private:
  Clock::time_point start_;
  double seconds_;
};

/// Per-backend tally over a whole run: events and seconds summed, and
/// the seconds the sequential engine took on the same cases, each seq
/// run back to back with the backend's. On this kind of shared host,
/// single runs are bimodal in speed, so sums are steadier than medians
/// of per-run ratios.
struct BackendTimes {
  double events = 0;
  double seconds = 0;
  double seq_seconds = 0;
  void add(double run_events, double run_s, double seq_s) {
    events += run_events;
    seconds += run_s;
    seq_seconds += seq_s;
  }
  double per_second() const { return seconds > 0 ? events / seconds : 0; }
  /// Backend speed relative to seq (> 1: the backend is faster).
  double vs_seq() const { return seconds > 0 ? seq_seconds / seconds : 0; }
};

/// Times a workload's sweep tables. Each rep() runs every listed table
/// once and checks every bound; workloads spread the repetitions over
/// the run. report() tops up to 3 repetitions, then reports tables_s
/// (the median repetition's summed wall time) and, traced,
/// tables.<id>_ms. Tables named in `untotalled` are run, checked and
/// timed per table, but left out of tables_s; rep(false) skips them.
/// A table that takes less than `min_s` is repeated within a rep until
/// it has taken that long, and its time is the mean over the repeats.
class TableTimer {
 public:
  TableTimer(const std::vector<std::string>& ids, bool smoke, Gate& gate,
             const std::vector<std::string>& untotalled = {},
             double min_s = 0);
  void rep(bool untotalled_too = true);
  void report(const Options& opts, Report& report);

 private:
  std::vector<csca::bench::SweepSpec> specs_;
  std::vector<bool> totalled_;
  bool smoke_;
  double min_s_;
  Gate& gate_;
  std::vector<double> totals_;
  std::vector<std::vector<double>> per_table_;
};

/// Times a workload's set-up over the whole run, not only at its start,
/// so that its median samples the host over the same window as the other
/// metrics: 5 repetitions at construction, then, after each trial or
/// pass, more until set-up has taken 5% of the time elapsed. Each
/// repetition returns the seconds its timed part took.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<double()> rep) : rep_(std::move(rep)) {
    while (samples_.size() < 5) samples_.push_back(rep_());
  }
  void top_up(const Deadline& deadline) {
    while (sum(samples_) < 0.05 * deadline.elapsed()) {
      samples_.push_back(rep_());
    }
  }
  double median_s() const { return median(samples_); }

 private:
  std::function<double()> rep_;
  std::vector<double> samples_;
};

/// The host's speed, sampled across the run by a calibration kernel that
/// is part of the benchmark, not of the program, so it does the same
/// work at every commit. On a shared virtual machine every timing of a
/// run moves with the host, by 25% and more between runs minutes apart;
/// the kernel moves with it. normalize() rescales the end-to-end timings
/// to a host on which the kernel takes kNominalS: times by
/// kNominalS / median, rates by median / kNominalS. The measured values
/// stay in the report file as raw.<name>, and the kernel's median time
/// is the per-layer metric host.calibration_ms.
class HostSpeed {
 public:
  /// The kernel's median time on the machine the benchmark was built on.
  static constexpr double kNominalS = 0.025;

  HostSpeed() {
    while (samples_.size() < 3) samples_.push_back(calibrate());
  }
  /// More samples until sampling has taken 3% of the run so far.
  void top_up(const Deadline& deadline) {
    while (sum(samples_) < 0.03 * deadline.elapsed()) {
      samples_.push_back(calibrate());
    }
  }
  void normalize(Report& report) const;

 private:
  double calibrate();
  std::vector<double> samples_;
  volatile std::int64_t sink_ = 0;
};

/// Records the backend thread configuration in the report.
void report_threads(Report& report);

}  // namespace perfbench
