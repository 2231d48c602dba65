// faults: the send pipeline down its faulty branch. ARQ-wrapped
// protocols under composed drop / duplicate / garble / byzantine plans
// and injector liveness churn, with exact delays (sequential engine with
// the invariant and byzantine-containment checkers, shard1, shard4);
// the raw protocols under the same plans with continuous delays on the
// optimistic engine, which cannot host the ARQ layer (ArqHost has no
// save_state); pulse-domain ARQ on the SyncEngine; self-stabilizing
// recovery under weight churn; and the fault, fault_ctl and churn
// tables.
#include <map>

#include "control/restabilize.h"
#include "engines.h"
#include "fault/churn_plan.h"
#include "fault/reliable_link.h"
#include "fault/sync_reliable_link.h"
#include "graph/families.h"
#include "graph/shortest_paths.h"
#include "par/partition.h"
#include "spt/bellman_ford.h"
#include "workloads.h"

namespace perfbench {

namespace {

const std::vector<std::string> kFaultTables = {"fault", "fault_ctl",
                                               "churn"};

struct NamedPlan {
  std::string name;
  csca::FaultPlan plan;
  std::string churn;  ///< builtin churn plan composed in ("" = none)
  /// Subjects hosted behind ARQ under this plan. Forged frames carry a
  /// valid checksum, so ARQ hands them up: GHS and the strip-method SPT
  /// reject the forged message types by throwing, and only flooding
  /// stays live under the byzantine plans.
  std::vector<std::string> arq_subjects;
};

// A TTL storm that shrugs off garbled payloads (the fault determinism
// suite's bounded storm): unlike the raw protocols, it keeps work going
// under every plan without ARQ, which the optimistic engine cannot
// host. It runs from the centre of the grid, so its size does not
// depend on the seed.
class ClampedStorm final : public Process {
 public:
  explicit ClampedStorm(NodeId source) : source_(source) {}
  void on_start(csca::Context& ctx) override {
    if (ctx.self() != source_) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {kTtl, -kTtl}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(csca::Context& ctx, const Message& m) override {
    if (m.data.size() != 2 || m.at(0) + m.at(1) != 0) return;  // garbled
    const std::int64_t ttl = std::min<std::int64_t>(
        std::max<std::int64_t>(m.at(0), 0), kTtl);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, -(ttl - 1)}}, cls);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<ClampedStorm>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const ClampedStorm&>(saved);
  }

 private:
  static constexpr std::int64_t kTtl = 6;
  NodeId source_;
};

// Composed plans; every rate is salted from the workload seed.
//
// Two configurations are left out because the program fails them at
// this commit (README.md, "Known defects"):
//   * DefaultInvariantChecker counts every invalid ARQ frame against
//     the channel's recorded garbles and has no on_byzantine tally, so
//     an equivocated frame behind ARQ is reported as a violation; the
//     equivocation plan therefore runs raw only.
//   * TimeWarpEngine with 2+ workers fails "speculative delivery out of
//     entry order" on the clamped storm under fault plans with exact
//     delays; the optimistic runs therefore use continuous delays only.
std::vector<NamedPlan> make_plans(const Graph& g, std::uint64_t seed) {
  const std::vector<std::string> all = {"flood", "ghs", "spt_recur"};
  std::vector<NamedPlan> out;
  csca::FaultPlan lossy;
  lossy.drop_rate = 0.03;
  lossy.dup_rate = 0.02;
  lossy.garble_rate = 0.02;
  lossy.salt = csca::derive_stream_seed(seed, 1);
  out.push_back({"lossy", lossy, "", all});
  csca::FaultPlan forge;
  forge.drop_rate = 0.02;
  forge.byzantine.push_back(g.node_count() / 2);
  forge.forge_rate = 0.05;
  forge.salt = csca::derive_stream_seed(seed, 2);
  out.push_back({"forge", forge, "", {"flood"}});
  csca::FaultPlan equivocate;
  equivocate.drop_rate = 0.02;
  equivocate.byzantine.push_back(g.node_count() / 2);
  equivocate.equivocate_rate = 0.05;
  equivocate.salt = csca::derive_stream_seed(seed, 3);
  out.push_back({"equivocate", equivocate, "", {}});
  csca::FaultPlan churned;
  churned.drop_rate = 0.02;
  churned.dup_rate = 0.02;
  churned.salt = csca::derive_stream_seed(seed, 4);
  out.push_back({"churned", churned, "edge_churn", all});
  return out;
}

struct FaultCase {
  std::string label;
  SubjectCase subject;
  csca::ScheduleSpec spec;
  std::unique_ptr<csca::FaultInjector> injector;
  bool arq = false;  ///< behind ARQ (seq, shard1, shard4); else raw on tw4
};

struct Inputs {
  std::vector<csca::GraphFamily> graphs;
  std::vector<FaultCase> cases;
  std::vector<std::unique_ptr<csca::FaultInjector>> sync_injectors;
  std::vector<std::vector<Weight>> sync_oracles;  ///< Dijkstra from node 0
  double graph_s = 0;
  double injector_s = 0;
};

std::vector<csca::ScheduleSpec> fault_schedules(std::uint64_t seed) {
  return {{"exact", csca::derive_stream_seed(seed, 11),
           [] { return csca::make_exact_delay(); }, {}, {}},
          {"uniform[0,1)", csca::derive_stream_seed(seed, 12),
           [] { return csca::make_uniform_delay(0, 1); }, {}, {}}};
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const auto g0 = Clock::now();
  // Fixed topologies (the seeds of builtin_families' stream): the
  // workload seed varies the plans' salts, the injectors and the delay
  // draws, not how much work a graph holds.
  const auto fixed = [](std::uint64_t i) {
    return csca::derive_stream_seed(2026, 20 + i);
  };
  in.graphs.push_back({"gnp64", csca::make_family("gnp", 64, fixed(0))});
  in.graphs.push_back(
      {"geometric64", csca::make_family("geometric", 64, fixed(1))});
  in.graphs.push_back({"grid8x8", csca::make_family("grid", 64, fixed(2))});
  in.graph_s = seconds_since(g0);

  double injector_s = 0;
  for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
    const Graph& g = in.graphs[gi].graph;
    for (const NamedPlan& plan : make_plans(g, seed)) {
      std::vector<std::pair<std::string, bool>> runs;
      for (const std::string& subject : plan.arq_subjects) {
        runs.emplace_back(subject, true);
      }
      runs.emplace_back("flood", false);
      if (in.graphs[gi].name == "grid8x8") {
        runs.emplace_back("clamped_storm", false);
      }
      for (const auto& [subject, arq] : runs) {
        for (const csca::ScheduleSpec& spec : fault_schedules(seed)) {
          // ARQ runs take the exact schedule: its positive lookahead lets
          // the conservative engine form windows, where zero-lookahead
          // delays would turn each of its runs into a barrier-latency
          // probe. The raw runs take continuous delays (see make_plans).
          const bool exact = spec.name == "exact";
          if (arq != exact) continue;
          FaultCase c;
          c.label = subject + "/" + in.graphs[gi].name + "/" + plan.name +
                    "/" + spec.name + (arq ? " arq" : " raw");
          c.arq = arq;
          if (subject == "clamped_storm") {
            c.subject.subject = subject;
            c.subject.graph = &g;
            const NodeId centre = 4 * 8 + 4;  // (4, 4) on the 8 x 8 grid
            c.subject.factory = [centre](NodeId) {
              return std::make_unique<ClampedStorm>(centre);
            };
          } else {
            c.subject = make_subject_case(subject, g, spec);
          }
          c.spec = spec;
          const auto i0 = Clock::now();
          if (plan.churn.empty()) {
            c.injector = std::make_unique<csca::FaultInjector>(plan.plan, g,
                                                               spec.seed);
          } else {
            c.injector = std::make_unique<csca::FaultInjector>(
                plan.plan, csca::make_builtin_churn_plan(plan.churn, g), g,
                spec.seed);
          }
          injector_s += seconds_since(i0);
          in.cases.push_back(std::move(c));
        }
      }
    }
    csca::FaultPlan drops;
    drops.drop_rate = 0.05;
    drops.dup_rate = 0.02;
    drops.salt = csca::derive_stream_seed(seed, 5);
    const auto i0 = Clock::now();
    in.sync_injectors.push_back(
        std::make_unique<csca::FaultInjector>(
            drops, g, csca::derive_stream_seed(seed, 6)));
    injector_s += seconds_since(i0);
    in.sync_oracles.push_back(csca::dijkstra(g, 0).dist);
  }
  in.injector_s = injector_s;
  return in;
}

}  // namespace

void run_faults(const Options& opts, Gate& gate, Report& report) {
  const Deadline deadline(opts.seconds);
  const bool trace = opts.trace;
  LayerTally tally;
  LayerTally* tr = trace ? &tally : nullptr;

  HostSpeed host;
  // Set-up: graphs, plans, injectors, prepared subjects.
  std::vector<double> graph_build, injector_build;
  SetupTimer setup([&] {
    const auto t0 = Clock::now();
    const Inputs inputs = make_inputs(opts.seed);
    const double secs = seconds_since(t0);
    graph_build.push_back(inputs.graph_s);
    injector_build.push_back(inputs.injector_s);
    const auto p0 = Clock::now();
    for (const csca::GraphFamily& fam : inputs.graphs) {
      csca::partition_shards(fam.graph, 4);
    }
    tally.partition_s.push_back(seconds_since(p0));
    return secs;
  });
  Inputs in = make_inputs(opts.seed);

  // The fault tables, once per pass.
  TableTimer tables(kFaultTables, /*smoke=*/false, gate);

  // sync: pulse-domain ARQ hosting in-synch Bellman-Ford over a lossy
  // channel; the ARQ layer must recover the exact distances.
  BackendTimes sync;
  const auto run_sync_arq = [&](bool timed) {
    for (std::size_t gi = 0; gi < in.graphs.size(); ++gi) {
      const Graph& g = in.graphs[gi].graph;
      std::vector<Weight> orig_w;
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        orig_w.push_back(g.weight(e));
      }
      SpanTotals handler;
      csca::SyncEngine eng(
          g, timed_sync_factory(
                 csca::sync_arq_factory([&orig_w](NodeId v) {
                   return std::make_unique<csca::InSynchBellmanFord>(
                       v, 0, &orig_w);
                 }),
                 trace ? &handler : nullptr));
      eng.set_faults(in.sync_injectors[gi].get());
      gate.attempt();
      const auto t0 = Clock::now();
      const RunStats stats = eng.run();
      const double run_s = seconds_since(t0);
      bool valid = true;
      for (NodeId v = 0; v < g.node_count(); ++v) {
        auto& host = dynamic_cast<csca::SyncArqHost&>(sync_inner(eng, v));
        valid = valid &&
                dynamic_cast<csca::InSynchBellmanFord&>(host.inner()).dist() ==
                    in.sync_oracles[gi][static_cast<std::size_t>(v)];
      }
      gate.expect(valid, "sync ARQ Bellman-Ford on " + in.graphs[gi].name +
                             ": distances differ from Dijkstra");
      if (timed) sync.add(static_cast<double>(stats.events), run_s, 0);
      if (trace) {
        tally.sync_events += static_cast<double>(stats.events);
        tally.sync_run_s += run_s;
        tally.sync_handler_ns += static_cast<double>(handler.ns());
        tally.sync_handler_calls += static_cast<double>(handler.count());
      }
    }
  };

  double seq_events = 0, seq_s = 0;
  std::map<Backend, BackendTimes> par;
  std::vector<double> run_ms;
  std::vector<double> rss;
  double arq_algorithm = 0, arq_control = 0;
  double restab_epochs = 0, restab_rebuilds = 0, restab_s = 0;
  double pass_secs = 0;
  int passes = 0;
  // The first pass also runs every case on its threaded backends, each
  // back to back with the case's seq run. The seq and sync figures come
  // from the later passes, which run without the threaded backends
  // beside them, so a run always makes at least two passes. A traced
  // run makes one. peak_rss_mib is the median over the later passes of
  // the memory each adds at its peak.
  while (passes == 0 ||
         (!trace && (passes == 1 || deadline.remaining() > pass_secs))) {
    const auto pass_start = Clock::now();
    const bool timed = trace || passes > 0;
    const double rss0 = restart_peak_rss();
    for (const FaultCase& c : in.cases) {
      const SubjectCase& sc = c.subject;
      const csca::FaultInjector* inj = c.injector.get();
      const bool byzantine = !inj->plan().byzantine.empty();
      const SeqSetup seq_setup{inj, true, byzantine, c.arq};
      const ProcessFactory factory =
          c.arq ? csca::arq_factory(sc.factory) : sc.factory;

      gate.attempt();
      const EngineRun ref =
          run_seq(*sc.graph, factory, sc.digest, c.spec, seq_setup, tr);
      if (!gate.expect(!ref.failed && ref.violations.empty(),
                       c.label + " seq: " + first_violation(ref))) {
        continue;
      }
      if (timed) {
        seq_events += static_cast<double>(ref.stats.events);
        seq_s += ref.plain_wall_s;
        run_ms.push_back(1e3 * ref.plain_wall_s);
      }
      if (c.arq) {
        arq_algorithm += static_cast<double>(ref.stats.algorithm_messages);
        arq_control += static_cast<double>(ref.stats.control_messages);
      }
      const std::vector<Backend> backends =
          passes > 0 ? std::vector<Backend>{}
          : c.arq    ? std::vector<Backend>{Backend::kShard1, Backend::kShard4}
                     : std::vector<Backend>{Backend::kTw4};
      for (const Backend b : backends) {
        gate.attempt();
        const EngineRun run = run_par(b, *sc.graph, factory, sc.digest,
                                      c.spec, inj, tr);
        const std::string what = c.label + " " + backend_name(b);
        if (!gate.expect(!run.failed && run.violations.empty(),
                         what + ": " + first_violation(run))) {
          continue;
        }
        gate.same_ledger(ref.stats, run.stats, what);
        gate.same_digest(ref.digest, run.digest, what);
        par[b].add(static_cast<double>(run.stats.events), run.plain_wall_s,
                   ref.plain_wall_s);
      }
    }

    // Self-stabilizing recovery under weight churn.
    for (const csca::GraphFamily& fam : in.graphs) {
      for (const csca::RestabilizeSubject subject :
           {csca::RestabilizeSubject::kMst, csca::RestabilizeSubject::kSpt}) {
        for (const char* churn : {"weights_mild", "weights_heavy"}) {
          csca::RestabilizeOptions ro;
          ro.subject = subject;
          ro.churn = csca::make_builtin_churn_plan(churn, fam.graph);
          ro.seed = csca::derive_stream_seed(opts.seed, 30);
          gate.attempt();
          const auto t0 = Clock::now();
          const csca::RestabilizeReport rep =
              csca::run_restabilizing(fam.graph, ro);
          const double secs = seconds_since(t0);
          gate.expect(rep.final_valid,
                      std::string("restabilize ") + churn + " on " +
                          fam.name + ": final state invalid");
          if (timed) {
            run_ms.push_back(1e3 * secs);
            seq_events += static_cast<double>(rep.total.events);
            seq_s += secs;
          }
          restab_epochs += static_cast<double>(rep.epochs.size());
          restab_rebuilds += static_cast<double>(rep.restabilizations);
          restab_s += secs;
        }
      }
    }
    run_sync_arq(timed);
    tables.rep();
    if (timed) rss.push_back(peak_rss_mib() - rss0);
    setup.top_up(deadline);
    host.top_up(deadline);
    pass_secs = seconds_since(pass_start);
    if (passes == 0) report.fact("first_pass_s", std::to_string(pass_secs));
    ++passes;
    // Each pass draws fresh graphs, plans and injectors from the seed, so
    // a run averages over inputs as well as time.
    in = make_inputs(csca::derive_stream_seed(opts.seed, passes));
  }

  tables.report(opts, report);
  report.metric("setup_s", setup.median_s(), "s");
  report.fact("passes", std::to_string(passes));
  report.fact("cases_per_pass", std::to_string(in.cases.size()));
  report.metric("seq_events_per_s", seq_events / seq_s, "1/s");
  report.metric("sync_events_per_s", sync.per_second(), "1/s");
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
  double bytes = 0;
  for (const csca::GraphFamily& fam : in.graphs) {
    bytes += static_cast<double>(fam.graph.memory_bytes());
  }
  report.metric("graph.bytes", bytes, "bytes");
  report.metric("fault.injector_build_s", median(injector_build), "s");
  report.metric("fault.arq.overhead_ratio",
                arq_algorithm > 0 ? arq_control / arq_algorithm : 0, "ratio");
  report.metric("control.restabilize.epochs", restab_epochs, "count");
  report.metric("control.restabilize.rebuilds", restab_rebuilds, "count");
  report.metric("control.restabilize.ms_per_epoch",
                restab_epochs > 0 ? 1e3 * restab_s / restab_epochs : 0, "ms");
  tally.emit(report);
}

}  // namespace perfbench
