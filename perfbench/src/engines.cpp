#include "engines.h"

#include <algorithm>
#include <optional>

#include "check/byzantine_check.h"
#include "check/invariants.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Reads the digest through the unwrapping view. Oracle mismatches are
// violations unless a fault plan may legitimately degrade the output.
template <typename Engine>
void finish_par(Engine& eng, const Digest& digest, bool faulted,
                EngineRun& out) {
  if (!digest) return;
  UnwrapHost view(eng);
  std::vector<std::string> degraded;
  out.digest = digest(view, degraded);
  if (!faulted) {
    for (std::string& d : degraded) out.violations.push_back(std::move(d));
  }
}

EngineRun with_plain_times(EngineRun run, const EngineRun& plain) {
  run.plain_wall_s = plain.wall_s;
  run.plain_run_s = plain.run_s;
  return run;
}

EngineRun with_plain_times(EngineRun run) {
  run.plain_wall_s = run.wall_s;
  run.plain_run_s = run.run_s;
  return run;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kShard1:
      return "shard1";
    case Backend::kShard4:
      return "shard4";
    case Backend::kTw4:
      return "tw4";
  }
  return "?";
}

EngineRun run_seq(const Graph& g, const ProcessFactory& factory,
                  const Digest& digest, const csca::ScheduleSpec& spec,
                  const SeqSetup& setup, LayerTally* tally) {
  const auto execute = [&](bool traced) {
    EngineRun out;
    try {
      const auto t0 = Clock::now();
      SpanTotals handler;
      // The wrappers exist only when tracing: an untraced run is the
      // program as csca_check drives it, with the checkers attached
      // directly.
      std::unique_ptr<csca::DelayModel> delay = spec.make_delay();
      TimedDelay* delay_view = nullptr;
      if (traced) {
        auto timed = std::make_unique<TimedDelay>(std::move(delay));
        delay_view = timed.get();
        delay = std::move(timed);
      }
      csca::Network net(
          g, traced ? timed_factory(factory, &handler, &handler) : factory,
          std::move(delay), spec.seed);
      net.set_keyed_delays(true);
      if (setup.faults != nullptr) net.set_faults(setup.faults);
      csca::DefaultInvariantChecker checker;
      std::optional<csca::ByzantineContainmentChecker> byz;
      if (setup.faults != nullptr) checker.set_faults(setup.faults);
      if (setup.byzantine_checker) {
        byz.emplace(setup.faults != nullptr ? setup.faults->plan().byzantine
                                            : std::vector<NodeId>{});
        if (setup.faults != nullptr) byz->set_faults(setup.faults);
      }
      ObserverHub hub(traced);
      if (traced || byz) {
        if (setup.invariant_checker) hub.add(&checker);
        if (byz) hub.add(&*byz);
        if (traced && tally->queue_ops.size() < LayerTally::kMaxQueueOps) {
          hub.record_queue(&tally->queue_ops);
        }
        net.set_observer(&hub);
      } else if (setup.invariant_checker) {
        net.set_observer(&checker);
      }
      const auto r0 = Clock::now();
      out.stats = net.run();
      out.run_s = seconds_since(r0);

      const auto f0 = Clock::now();
      UnwrapHost view(net);
      if (setup.invariant_checker) {
        checker.check_final(net);
        if (setup.check_arq) checker.check_arq(view);
      }
      if (byz) byz->check_final(net);
      const double final_s = seconds_since(f0);
      net.set_observer(nullptr);
      out.violations = checker.violations();
      if (checker.suppressed() > 0) {
        out.violations.push_back("further invariant violations suppressed");
      }
      if (byz) {
        for (const std::string& v : byz->violations()) {
          out.violations.push_back(v);
        }
      }

      const auto d0 = Clock::now();
      std::vector<std::string> degraded;
      if (digest) out.digest = digest(view, degraded);
      const double digest_s = seconds_since(d0);
      // Oracle mismatches are violations unless a fault plan may
      // legitimately degrade the output.
      if (setup.faults == nullptr) {
        for (std::string& d : degraded) out.violations.push_back(std::move(d));
      }
      out.wall_s = seconds_since(t0);
      out.handler_ns = static_cast<double>(handler.ns());
      out.handler_calls = static_cast<double>(handler.count());

      if (traced) {
        tally->seq_events += static_cast<double>(out.stats.events);
        tally->seq_run_s += out.run_s;
        tally->seq_handler_ns += static_cast<double>(handler.ns());
        tally->seq_handler_calls += static_cast<double>(handler.count());
        const double draws = static_cast<double>(delay_view->draws());
        tally->delay_draws += draws;
        tally->delay_replay_ns += draws * delay_view->replay_ns_per_draw();
        tally->queue_peak = std::max(
            tally->queue_peak, static_cast<double>(net.peak_queue_depth()));
        tally->ties += static_cast<double>(hub.ties());
        tally->deliveries += static_cast<double>(hub.deliveries());
        tally->observer_ns += static_cast<double>(hub.observer_ns());
        tally->observer_events += static_cast<double>(out.stats.events);
        tally->drops += static_cast<double>(hub.drops());
        tally->dups += static_cast<double>(hub.dups());
        tally->garbles += static_cast<double>(hub.garbles());
        tally->byzantine += static_cast<double>(hub.byzantine());
        if (setup.invariant_checker) {
          tally->final_ms += 1e3 * final_s;
          tally->final_runs += 1;
        }
        if (digest) {
          tally->digest_ms += 1e3 * digest_s;
          tally->digest_runs += 1;
        }
      }
    } catch (const std::exception& e) {
      out.failed = true;
      out.violations.push_back(std::string("exception: ") + e.what());
    }
    return out;
  };

  if (tally == nullptr) return with_plain_times(execute(false));
  // The untraced twin, back to back: the tracing-overhead figure.
  const EngineRun plain = execute(false);
  tally->untraced_events += static_cast<double>(plain.stats.events);
  tally->untraced_s += plain.run_s;
  return with_plain_times(execute(true), plain);
}

EngineRun run_par(Backend backend, const Graph& g,
                  const ProcessFactory& factory, const Digest& digest,
                  const csca::ScheduleSpec& spec,
                  const csca::FaultInjector* faults, LayerTally* tally) {
  const auto execute = [&](bool traced) {
    EngineRun out;
    SpanTotals handler;
    SpanTotals snapshot;
    const ProcessFactory f =
        traced ? timed_factory(factory, &handler, &snapshot) : factory;
    try {
      const auto t0 = Clock::now();
      if (backend == Backend::kTw4) {
        csca::TimeWarpEngine eng(
            g, f, spec.make_delay(), spec.seed,
            csca::TimeWarpEngine::Options{4, kThreads, 256, {}});
        if (faults != nullptr) eng.set_faults(faults);
        std::int64_t last_ns = 0;
        if (traced) {
          eng.set_gvt_hook([&](const csca::TimeWarpEngine::GvtSample&) {
            const std::int64_t now = now_ns();
            if (last_ns != 0) {
              tally->gvt_interval_ns.push_back(
                  static_cast<double>(now - last_ns));
            }
            last_ns = now;
            tally->gvt_rounds += 1;
          });
        }
        const auto r0 = Clock::now();
        out.stats = eng.run();
        out.run_s = seconds_since(r0);
        finish_par(eng, digest, faults != nullptr, out);
        if (traced) {
          tally->tw_events += static_cast<double>(out.stats.events);
          tally->tw_run_s += out.run_s;
          tally->rollbacks += static_cast<double>(eng.rollbacks());
          tally->rolled_back += static_cast<double>(eng.rolled_back_events());
          tally->anti += static_cast<double>(eng.anti_messages());
          tally->speculative += static_cast<double>(eng.speculative_events());
          tally->tw_handler_ns += static_cast<double>(handler.ns());
          tally->snapshot_ns += static_cast<double>(snapshot.ns());
          tally->state_bytes =
              std::max(tally->state_bytes,
                       static_cast<double>(eng.process_state_bytes()));
        }
      } else {
        const int shards = backend == Backend::kShard1 ? 1 : 4;
        csca::ShardEngine eng(
            g, f, spec.make_delay(), spec.seed,
            csca::ShardEngine::Options{shards, shards == 1 ? 1 : kThreads, {}});
        if (faults != nullptr) eng.set_faults(faults);
        const auto r0 = Clock::now();
        out.stats = eng.run();
        out.run_s = seconds_since(r0);
        finish_par(eng, digest, faults != nullptr, out);
        if (traced && shards == 1) {
          tally->shard1_events += static_cast<double>(out.stats.events);
          tally->shard1_run_s += out.run_s;
          tally->shard1_handler_ns += static_cast<double>(handler.ns());
          tally->shard1_handler_calls += static_cast<double>(handler.count());
        } else if (traced) {
          tally->shard4_events += static_cast<double>(out.stats.events);
          tally->shard4_run_s += out.run_s;
          tally->shard4_rounds += static_cast<double>(eng.rounds());
          tally->shard4_waves += static_cast<double>(eng.wave_rounds());
          tally->shard4_handler_ns += static_cast<double>(handler.ns());
          const double total = static_cast<double>(out.stats.total_messages());
          tally->msgs += total;
          tally->cross_msgs +=
              total * cross_shard_fraction(eng, eng.partition().shard_of);
        }
      }
      out.wall_s = seconds_since(t0);
      out.handler_ns = static_cast<double>(handler.ns());
      out.handler_calls = static_cast<double>(handler.count());
    } catch (const std::exception& e) {
      out.failed = true;
      out.violations.push_back(std::string("exception: ") + e.what());
    }
    return out;
  };

  if (tally == nullptr) return with_plain_times(execute(false));
  const EngineRun plain = execute(false);
  if (plain.failed) return plain;
  return with_plain_times(execute(true), plain);
}

void LayerTally::emit(Report& report) {
  report.metric("sim.net.self_ns_per_event",
                ratio(1e9 * seq_run_s - seq_handler_ns, seq_events), "ns");
  report.metric("sim.net.handler_ns_per_event",
                handler_ns_per_event(seq_handler_ns, seq_handler_calls,
                                     seq_events),
                "ns");
  report.metric("sim.delay.draws", delay_draws, "count");
  report.metric("sim.delay.ns_per_draw", ratio(delay_replay_ns, delay_draws),
                "ns");
  report.metric("sim.queue.peak_depth", queue_peak, "count");
  const QueueReplay replay = replay_queue(queue_ops);
  report.metric("sim.queue.eventheap_ns_per_op", replay.eventheap_ns_per_op,
                "ns");
  report.metric("sim.queue.calqueue_ns_per_op", replay.calqueue_ns_per_op,
                "ns");
  report.metric("sim.order.tie_frac", ratio(ties, deliveries), "ratio");
  report.metric("sim.sync.self_ns_per_event",
                ratio(1e9 * sync_run_s - sync_handler_ns, sync_events), "ns");

  report.metric("par.partition_s", median(partition_s), "s");
  report.metric("par.shard.rounds", shard4_rounds, "count");
  report.metric("par.shard.wave_rounds", shard4_waves, "count");
  report.metric("par.shard.events_per_round",
                ratio(shard4_events, shard4_rounds), "count");
  report.metric("par.shard.cross_msgs_frac", ratio(cross_msgs, msgs),
                "ratio");
  report.metric("par.shard.handler_busy_frac",
                ratio(shard4_handler_ns, 1e9 * kThreads * shard4_run_s),
                "ratio");
  report.metric("par.shard.self_ns_per_event",
                ratio(1e9 * shard1_run_s - shard1_handler_ns, shard1_events),
                "ns");
  report.metric("par.tw.gvt_rounds", gvt_rounds, "count");
  report.metric("par.tw.ms_per_gvt_round", 1e-6 * median(gvt_interval_ns),
                "ms");
  report.metric("par.tw.rollbacks", rollbacks, "count");
  report.metric("par.tw.rolled_back_events", rolled_back, "count");
  report.metric("par.tw.anti_messages", anti, "count");
  report.metric("par.tw.commit_efficiency",
                speculative > 0 ? tw_events / speculative : 0, "ratio");
  report.metric("par.tw.snapshot_ns_per_event", ratio(snapshot_ns, speculative),
                "ns");
  report.metric("par.tw.handler_busy_frac",
                ratio(tw_handler_ns, 1e9 * kThreads * tw_run_s), "ratio");
  report.metric("par.tw.state_bytes", state_bytes, "bytes");

  report.metric("fault.drops", drops, "count");
  report.metric("fault.dups", dups, "count");
  report.metric("fault.garbles", garbles, "count");
  report.metric("fault.byzantine", byzantine, "count");
  report.metric("check.observer_ns_per_event",
                ratio(observer_ns, observer_events), "ns");
  report.metric("check.final_ms", ratio(final_ms, final_runs), "ms");
  report.metric("check.digest_ms", ratio(digest_ms, digest_runs), "ms");

  const double untraced = ratio(untraced_events, untraced_s);
  const double traced = ratio(seq_events, seq_run_s);
  report.metric("trace.seq_events_per_s_untraced", untraced, "1/s");
  report.metric("trace.seq_events_per_s_traced", traced, "1/s");
  report.metric("trace.overhead_frac",
                untraced > 0 ? 1.0 - traced / untraced : 0, "ratio");
}

}  // namespace perfbench
