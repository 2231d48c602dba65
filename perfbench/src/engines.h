// One run of a prepared protocol on each engine, plus the per-layer
// tallies a traced run accumulates across all of them.
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "check/schedule_check.h"
#include "fault/fault_injector.h"
#include "subjects.h"

namespace perfbench {

class Report;

/// Per-layer quantities summed over every traced run of a workload.
struct LayerTally {
  // sequential Network
  double seq_events = 0, seq_run_s = 0, seq_handler_ns = 0,
         seq_handler_calls = 0;
  double delay_draws = 0, delay_replay_ns = 0;  ///< replay_ns weighted
  double queue_peak = 0, ties = 0, deliveries = 0;
  double observer_ns = 0, observer_events = 0;
  double final_ms = 0, final_runs = 0, digest_ms = 0, digest_runs = 0;
  std::vector<double> queue_ops;
  static constexpr std::size_t kMaxQueueOps = std::size_t{1} << 24;
  double untraced_events = 0, untraced_s = 0;
  // fault fates seen by the observer
  double drops = 0, dups = 0, garbles = 0, byzantine = 0;
  // pulse engine
  double sync_events = 0, sync_run_s = 0, sync_handler_ns = 0,
         sync_handler_calls = 0;
  // conservative engine: 1 shard for self time, 4 shards for the rest
  double shard1_events = 0, shard1_run_s = 0, shard1_handler_ns = 0,
         shard1_handler_calls = 0;
  double shard4_events = 0, shard4_run_s = 0, shard4_rounds = 0,
         shard4_waves = 0, msgs = 0, cross_msgs = 0, shard4_handler_ns = 0;
  // optimistic engine
  double tw_events = 0, tw_run_s = 0, gvt_rounds = 0, rollbacks = 0,
         rolled_back = 0, anti = 0, speculative = 0, state_bytes = 0,
         tw_handler_ns = 0, snapshot_ns = 0;
  std::vector<double> gvt_interval_ns;
  std::vector<double> partition_s;

  /// Writes every per-layer metric this tally covers.
  void emit(Report& report);
};

/// What the sequential reference attaches and checks.
struct SeqSetup {
  const csca::FaultInjector* faults = nullptr;
  bool invariant_checker = true;  ///< DefaultInvariantChecker + check_final
  bool byzantine_checker = false;  ///< ByzantineContainmentChecker too
  bool check_arq = false;          ///< processes are ArqHost-wrapped
};

struct EngineRun {
  RunStats stats;
  std::string digest;
  std::vector<std::string> violations;
  double wall_s = 0;  ///< construction + run + checks + digest
  double run_s = 0;   ///< run() alone
  /// wall_s and run_s of the untraced twin of a traced run (the run
  /// itself when untraced): what workloads time.
  double plain_wall_s = 0;
  double plain_run_s = 0;
  double handler_ns = 0;     ///< traced: this run's handler spans
  double handler_calls = 0;  ///< ... and how many there were
  bool failed = false;
};

/// The first violation of a run, for a failure message.
inline std::string first_violation(const EngineRun& run) {
  return run.violations.empty() ? std::string("?") : run.violations.front();
}

/// The keyed sequential Network: the reference ledger of every
/// comparison. With a tally, the run is traced (handler spans, delay
/// draws, observer time, queue stream) and, first, repeated untraced
/// for the tracing-overhead figure. A null digest skips the digest.
EngineRun run_seq(const Graph& g, const ProcessFactory& factory,
                  const Digest& digest, const csca::ScheduleSpec& spec,
                  const SeqSetup& setup, LayerTally* tally);

enum class Backend { kShard1, kShard4, kTw4 };
const char* backend_name(Backend b);

/// One run on a parallel engine driven by the benchmark itself (so a
/// traced run can wrap the processes and read the engine's counters).
/// With a tally, the run is traced and, first, repeated untraced for
/// the plain timings.
EngineRun run_par(Backend backend, const Graph& g,
                  const ProcessFactory& factory, const Digest& digest,
                  const csca::ScheduleSpec& spec,
                  const csca::FaultInjector* faults, LayerTally* tally);

}  // namespace perfbench
