// The benchmark's own runners for the eight built-in check subjects.
//
// check/subjects.h runs each subject end to end (engine construction,
// run, digest) behind one call, on an unkeyed Network for the
// sequential engine. The benchmark needs the pieces separately: the
// keyed sequential reference ledger, a factory it can wrap in timing
// or ARQ hosts, and an output digest it can apply to any engine. The
// factories and oracles here mirror the subjects' own.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "check/schedule_check.h"
#include "graph/families.h"

namespace perfbench {

/// Digest of a finished run read through `host`, plus oracle mismatches
/// appended to `violations`.
using Digest =
    std::function<std::string(ProcessHost& host,
                              std::vector<std::string>& violations)>;

/// One subject prepared on one graph: what every engine needs to host
/// it. The synchronizer subjects (spt_synch, bf_alpha, bf_beta) host an
/// in-synch Bellman-Ford whose pulse-domain run on the SyncEngine sets
/// their pulse budget; that run is the workload's sync backend.
struct SubjectCase {
  std::string subject;
  const Graph* graph = nullptr;  ///< the graph the engines run on
  ProcessFactory factory;
  Digest digest;

  bool has_sync = false;
  SyncFactory sync_factory;  ///< the hosted in-synch Bellman-Ford
  bool enforce_in_synch = false;
  std::vector<Weight> oracle_dist;  ///< Dijkstra distances on the input

  std::shared_ptr<void> keep_alive;  ///< owns the graph copy and hosts
};

/// Prepares `subject` on g (which must outlive the case) for one
/// schedule: the synchronizers' coordination network takes the
/// schedule's delay model and seed, exactly as the check subject does.
SubjectCase make_subject_case(const std::string& subject, const Graph& g,
                              const csca::ScheduleSpec& spec);

/// One pulse-domain run of a synchronizer subject's hosted protocol.
struct SyncRun {
  RunStats stats;
  double seconds = 0;  ///< run() only
  bool valid = false;  ///< distances equal the Dijkstra oracle
};
SyncRun run_sync(const SubjectCase& c, SpanTotals* handler = nullptr);

/// The process of node v with timing and ARQ wrappers peeled off.
Process& protocol_process(ProcessHost& host, NodeId v);

/// default_portfolio() with every schedule's network seed drawn from the
/// workload seed (names and delay models unchanged).
std::vector<csca::ScheduleSpec> seeded_portfolio(std::uint64_t seed);

}  // namespace perfbench
