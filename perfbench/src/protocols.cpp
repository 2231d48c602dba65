// protocols: the paper's protocols as users run them — the 8 built-in
// check subjects x 5 graph families x the 8-schedule portfolio on every
// engine (csca_check's matrix), the synchronizers' pulse-domain runs,
// and the 13 reproduction tables. Runs are short and handler state is
// real: per-run set-up, handlers, snapshots and per-event barrier
// rounds dominate, and the queue does little.
#include <map>

#include "check/subjects.h"
#include "engines.h"
#include "graph/families.h"
#include "par/partition.h"
#include "workloads.h"

namespace perfbench {

namespace {

const std::vector<std::string> kReproductionTables = {
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "S3", "S4", "S5",
    "A1"};

struct Inputs {
  std::vector<csca::GraphFamily> families;
  std::vector<csca::ScheduleSpec> portfolio;
  /// cases[f][s][k]: family f, subject s, schedule k.
  std::vector<std::vector<std::vector<SubjectCase>>> cases;
};

Inputs make_inputs(std::uint64_t seed, double* graph_s) {
  Inputs in;
  const auto t0 = Clock::now();
  in.families = csca::builtin_families(/*smoke=*/false);
  *graph_s = seconds_since(t0);
  in.portfolio = seeded_portfolio(seed);
  for (const csca::GraphFamily& fam : in.families) {
    auto& per_family = in.cases.emplace_back();
    for (const std::string& subject : subject_names()) {
      auto& per_subject = per_family.emplace_back();
      for (const csca::ScheduleSpec& spec : in.portfolio) {
        per_subject.push_back(make_subject_case(subject, fam.graph, spec));
      }
    }
  }
  return in;
}

/// An untraced run takes one case in this many on the threaded
/// backends.
constexpr std::uint64_t kThreadedShare = 4;

struct SubjectTally {
  double events = 0, handler_ns = 0, handler_calls = 0;
};

}  // namespace

void run_protocols(const Options& opts, Gate& gate, Report& report) {
  const Deadline deadline(opts.seconds);
  const bool trace = opts.trace;
  LayerTally tally;
  LayerTally* tr = trace ? &tally : nullptr;

  const std::vector<csca::CheckSubject> subjects = csca::builtin_subjects();
  gate.attempt();
  bool names_match = subjects.size() == subject_names().size();
  for (std::size_t s = 0; names_match && s < subjects.size(); ++s) {
    names_match = subjects[s].name == subject_names()[s];
  }
  if (!gate.expect(names_match, "builtin_subjects() changed")) return;

  HostSpeed host;
  // Set-up: the families, the seeded schedules, and every subject
  // prepared on every graph (the synchronizers' coordination data).
  std::vector<double> graph_build;
  SetupTimer setup([&] {
    const auto t0 = Clock::now();
    double graph_s = 0;
    const Inputs inputs = make_inputs(opts.seed, &graph_s);
    const double secs = seconds_since(t0);
    graph_build.push_back(graph_s);
    const auto p0 = Clock::now();
    for (const csca::GraphFamily& fam : inputs.families) {
      csca::partition_shards(fam.graph, 4);
    }
    tally.partition_s.push_back(seconds_since(p0));
    return secs;
  });
  double graph_s = 0;
  Inputs in = make_inputs(opts.seed, &graph_s);

  // The reproduction tables, once per round.
  TableTimer tables(kReproductionTables, /*smoke=*/false, gate);

  // The matrix, in rounds; each new round replays it under freshly
  // seeded schedules. Timing is the users' path (CheckSubject::run and
  // run_par, as csca_check drives them); the keyed sequential Network
  // run beside it is the reference ledger every backend must equal.
  //
  // The first round also runs cases on the threaded backends, each back
  // to back with the case's seq run: the whole matrix when traced, else
  // a quarter of it drawn from the seed (the whole matrix takes about
  // 13 s on them, and far longer on a contended host). The seq and sync
  // figures come from the later rounds, which run without the threaded
  // backends beside them, so a run always makes at least two rounds. A
  // traced run makes one. peak_rss_mib is the median over the later
  // rounds of the memory each adds at its peak.
  BackendTimes seq, sync;
  std::map<Backend, BackendTimes> par;
  std::vector<double> run_ms;
  std::vector<double> rss;
  std::map<std::string, SubjectTally> per_subject;
  const std::vector<Backend> backends = {Backend::kShard1, Backend::kShard4,
                                        Backend::kTw4};
  double round_secs = 0;
  int round = 0;
  for (; round == 0 || (!trace && (round == 1 ||
                                   deadline.remaining() > round_secs));
       ++round) {
    const auto round_start = Clock::now();
    const bool timed = trace || round > 0;
    const double rss0 = restart_peak_rss();
    if (round > 0) {
      in.portfolio = seeded_portfolio(
          csca::derive_stream_seed(opts.seed,
                                   static_cast<std::uint64_t>(round)));
      for (std::size_t f = 0; f < in.families.size(); ++f) {
        for (std::size_t s = 0; s < subjects.size(); ++s) {
          for (std::size_t k = 0; k < in.portfolio.size(); ++k) {
            in.cases[f][s][k] = make_subject_case(
                subjects[s].name, in.families[f].graph, in.portfolio[k]);
          }
        }
      }
    }
    for (std::size_t f = 0; f < in.families.size(); ++f) {
      const csca::GraphFamily& fam = in.families[f];
      for (std::size_t s = 0; s < subjects.size(); ++s) {
        for (std::size_t k = 0; k < in.portfolio.size(); ++k) {
          const csca::ScheduleSpec& spec = in.portfolio[k];
          const SubjectCase& c = in.cases[f][s][k];
          const std::string label =
              c.subject + "/" + fam.name + "/" + spec.name;

          gate.attempt();
          const EngineRun ref =
              run_seq(*c.graph, c.factory, c.digest, spec,
                      SeqSetup{nullptr, true, false, false}, tr);
          if (!gate.expect(!ref.failed && ref.violations.empty(),
                           label + " keyed seq: " + first_violation(ref))) {
            continue;
          }
          if (trace) {
            SubjectTally& t = per_subject[c.subject];
            t.events += static_cast<double>(ref.stats.events);
            t.handler_ns += ref.handler_ns;
            t.handler_calls += ref.handler_calls;
          }

          gate.attempt();
          const auto u0 = Clock::now();
          const csca::SubjectOutcome user = subjects[s].run(fam.graph, spec);
          const double user_s = seconds_since(u0);
          gate.expect(!user.failed && user.violations.empty(),
                      label + " seq: " + user.error);
          gate.same_digest(ref.digest, user.digest, label + " seq");
          if (timed) {
            seq.add(static_cast<double>(user.stats.events), user_s, 0);
            run_ms.push_back(1e3 * user_s);
          }

          // sync: a synchronizer subject's hosted in-synch Bellman-Ford
          // on the pulse engine, interleaved with the matrix.
          if (c.has_sync) {
            SpanTotals handler;
            const SyncRun run = run_sync(c, trace ? &handler : nullptr);
            gate.attempt();
            gate.expect(run.valid,
                        label + " sync: distances differ from Dijkstra");
            if (timed) {
              sync.add(static_cast<double>(run.stats.events), run.seconds,
                       0);
            }
            if (trace) {
              tally.sync_events += static_cast<double>(run.stats.events);
              tally.sync_run_s += run.seconds;
              tally.sync_handler_ns += static_cast<double>(handler.ns());
              tally.sync_handler_calls +=
                  static_cast<double>(handler.count());
            }
          }

          const std::uint64_t case_index =
              (f * subjects.size() + s) * in.portfolio.size() + k;
          const bool in_share =
              csca::derive_stream_seed(opts.seed, 5000 + case_index) %
                  kThreadedShare ==
              0;
          const bool threaded = round == 0 && (trace || in_share);
          for (const Backend b :
               threaded ? backends : std::vector<Backend>{}) {
            // TimeWarp runs only the continuous-delay schedules: with 2+
            // workers it intermittently fails "speculative delivery out
            // of entry order" when exact-time ties are common (exact,
            // two-point, edge-fraction; README.md, "Known defects").
            if (b == Backend::kTw4 && spec.name.rfind("uniform", 0) != 0) {
              continue;
            }
            gate.attempt();
            const std::string what = label + " " + backend_name(b);
            EngineRun run;
            if (trace) {
              run = run_par(b, *c.graph, c.factory, c.digest, spec, nullptr,
                            tr);
            } else {
              const int shards = b == Backend::kShard1 ? 1 : 4;
              const csca::ParBackend pb = b == Backend::kTw4
                                              ? csca::ParBackend::kTimeWarp
                                              : csca::ParBackend::kShard;
              const auto t0 = Clock::now();
              const csca::SubjectOutcome o =
                  subjects[s].run_par(fam.graph, spec, shards, pb);
              run.plain_wall_s = seconds_since(t0);
              run.stats = o.stats;
              run.digest = o.digest;
              run.violations = o.violations;
              run.failed = o.failed;
              if (o.failed) run.violations.push_back(o.error);
            }
            if (!gate.expect(!run.failed && run.violations.empty(),
                             what + ": " + first_violation(run))) {
              continue;
            }
            gate.same_ledger(ref.stats, run.stats, what);
            gate.same_digest(ref.digest, run.digest, what);
            par[b].add(static_cast<double>(run.stats.events),
                       run.plain_wall_s, user_s);
          }
        }
      }
    }
    tables.rep();
    if (timed) rss.push_back(peak_rss_mib() - rss0);
    setup.top_up(deadline);
    host.top_up(deadline);
    round_secs = seconds_since(round_start);
    if (round == 0) report.fact("first_round_s", std::to_string(round_secs));
  }

  tables.report(opts, report);
  report.metric("setup_s", setup.median_s(), "s");
  report.fact("rounds", std::to_string(round));
  report.fact("runs_per_round",
              std::to_string(in.families.size() * subjects.size() *
                             in.portfolio.size()));
  report.metric("seq_events_per_s", seq.per_second(), "1/s");
  report.metric("sync_events_per_s", sync.per_second(), "1/s");
  for (const Backend b : backends) {
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
  double bytes = 0;
  for (const csca::GraphFamily& fam : in.families) {
    bytes += static_cast<double>(fam.graph.memory_bytes());
  }
  report.metric("graph.bytes", bytes, "bytes");
  for (const auto& [name, t] : per_subject) {
    report.metric("proto." + name + ".handler_ns_per_event",
                  handler_ns_per_event(t.handler_ns, t.handler_calls,
                                       t.events),
                  "ns");
    report.metric("proto." + name + ".events", t.events, "count");
  }
  tally.emit(report);
}

}  // namespace perfbench
