// Pure engine micro-benchmark: event throughput of the simulation hot
// path itself, with no protocol logic beyond trivial forwarding.
//
// Unlike the table/figure benches (which report *simulated* cost
// metrics and pin iterations to 1), this binary measures wall-clock
// events/sec of csca::Network and csca::SyncEngine — the hard ceiling
// on how large the reproduction sweeps can scale. Workloads:
//
//   * flood: TTL broadcast storm — every delivery with ttl > 0
//     re-broadcasts on all incident edges. Queue depth grows into the
//     millions; stresses heap sifts, payload moves, and the arena.
//   * ping_ring: k tokens relayed around a cycle — tiny queue, long
//     event chain; stresses per-event constant cost (pop/push latency).
//   * sync_flood: the storm on the weighted synchronous engine.
//
// Prints one row per workload and writes a machine-readable
// BENCH_engine.json so the perf trajectory is tracked PR over PR. The
// workload rows run through the shared bench_harness SweepRunner (pinned
// to jobs=1 — these rows time wall-clock, so running them concurrently
// would corrupt the measurement) and render with the common BENCH json
// schema; this table is deliberately NOT in builtin_tables(), because
// its wall-clock fields are outside the byte-identical JSON contract.
//
// Usage: bench_engine [--smoke] [--out=PATH]
//   --smoke     tiny inputs (~10^4 events/row); used by tools/check.sh
//   --out=PATH  JSON output path (default BENCH_engine.json)
// The flood workload is additionally run through a faithful replica of
// the seed engine's event loop (std::priority_queue of by-value event
// nodes, copy-on-top) so every bench run reports the tiered queue's
// speedup against the seed measured back-to-back on the same machine —
// immune to run-to-run machine drift.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <queue>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_harness/json.h"
#include "bench_harness/sweep.h"
#include "graph/generators.h"
#include "par/run_pool.h"
#include "par/shard_engine.h"
#include "sim/network.h"
#include "sim/sync_engine.h"

namespace csca {
namespace {

class Storm final : public Process {
 public:
  explicit Storm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0, 0, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}}, MsgClass::kAlgorithm);
    }
  }

 private:
  std::int64_t ttl_;
};

class SyncStorm final : public SyncProcess {
 public:
  explicit SyncStorm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(SyncContext& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0, 0, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(SyncContext& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}}, MsgClass::kAlgorithm);
    }
  }

 private:
  std::int64_t ttl_;
};

// k equally spaced tokens each relayed `hops` times around a cycle.
class RingToken final : public Process {
 public:
  RingToken(NodeId self, int n, int k, std::int64_t hops)
      : self_(self), n_(n), k_(k), hops_(hops) {}
  void on_start(Context& ctx) override {
    if (self_ % (n_ / k_) != 0) return;
    forward(ctx, hops_);
  }
  void on_message(Context& ctx, const Message& m) override {
    if (m.at(0) > 0) forward(ctx, m.at(0));
  }

 private:
  void forward(Context& ctx, std::int64_t remaining) {
    if (succ_ == kNoEdge) {
      for (EdgeId e : ctx.incident()) {
        if (ctx.neighbor(e) == (self_ + 1) % n_) succ_ = e;
      }
    }
    ctx.send(succ_, Message{0, {remaining - 1, self_, 0, 0}}, MsgClass::kAlgorithm);
  }
  NodeId self_;
  int n_, k_;
  std::int64_t hops_;
  EdgeId succ_ = kNoEdge;
};

struct Row {
  std::string workload;
  std::string family;
  int n = 0;
  std::int64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  std::size_t peak_queue_depth = 0;
  double speedup_vs_seed = 0;  // > 0 only when a baseline run exists
};

// The seed engine's hot path, reproduced exactly: one by-value node per
// pending delivery in a binary std::priority_queue, `top()` copying the
// node out before `pop()` sifts, and the seed's Message layout — a
// heap-allocated std::vector<std::int64_t> payload per message. Delay
// draws, FIFO clamping and the flood handler match Network+Storm line
// for line, so the event sequence is identical (asserted by the caller)
// and only the queue and message representation differ.
struct SeedFlood {
  struct Msg {
    int type = 0;
    std::vector<std::int64_t> data;
  };
  struct Node {
    double arrival;
    std::uint64_t seq;
    NodeId to;
    Msg msg;
    bool operator>(const Node& o) const {
      return std::tie(arrival, seq) > std::tie(o.arrival, o.seq);
    }
  };

  const Graph& g;
  std::unique_ptr<DelayModel> delay;
  Rng rng;
  std::priority_queue<Node, std::vector<Node>, std::greater<>> queue;
  std::vector<double> last_arrival;
  std::uint64_t seq = 0;
  double now = 0;
  std::int64_t events = 0;
  std::size_t peak = 0;

  SeedFlood(const Graph& graph, std::uint64_t seed)
      : g(graph),
        delay(make_uniform_delay(0.1, 0.9)),
        rng(seed),
        last_arrival(static_cast<std::size_t>(2 * graph.edge_count()), 0.0) {}

  void send(NodeId from, EdgeId e, Msg m) {
    const Edge& edge = g.edge(e);
    const double d = delay->delay(edge.w, rng);
    const std::size_t channel =
        static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
    const double arrival = std::max(now + d, last_arrival[channel]);
    last_arrival[channel] = arrival;
    queue.push(Node{arrival, seq++, g.other(e, from), std::move(m)});
    peak = std::max(peak, queue.size());
  }

  void run(std::int64_t ttl) {
    for (EdgeId e : g.incident(0)) send(0, e, Msg{0, {ttl, 0, 0, 0}});
    while (!queue.empty()) {
      const Node ev = queue.top();
      queue.pop();
      now = ev.arrival;
      ++events;
      const std::int64_t t = ev.msg.data[0];
      if (t <= 0) continue;
      for (EdgeId e : g.incident(ev.to)) {
        send(ev.to, e,
             Msg{0, {t - 1, ev.msg.data[1] + 1, ev.to, ev.msg.data[3]}});
      }
    }
  }
};

template <typename Engine, typename Run>
Row timed(const std::string& workload, const std::string& family, int n,
          Engine& engine, Run run) {
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats = run();
  const auto t1 = std::chrono::steady_clock::now();
  Row row{workload, family, n, stats.events,
          std::chrono::duration<double>(t1 - t0).count()};
  row.events_per_sec =
      static_cast<double>(row.events) / std::max(row.seconds, 1e-12);
  row.peak_queue_depth = engine.peak_queue_depth();
  std::printf("%-18s %-10s n=%-6d events=%-9lld secs=%7.3f "
              "events/sec=%11.0f peak_queue=%zu\n",
              workload.c_str(), family.c_str(), n,
              static_cast<long long>(row.events), row.seconds,
              row.events_per_sec, row.peak_queue_depth);
  return row;
}

Row flood_grid(const std::string& name, int side, std::int64_t ttl,
               bool with_baseline = false) {
  Rng rng(7);
  Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
  Network net(
      g, [ttl](NodeId) { return std::make_unique<Storm>(ttl); },
      make_uniform_delay(0.1, 0.9), 1234);
  Row row = timed(name, "grid", side * side, net, [&] { return net.run(); });
  if (!with_baseline) return row;

  SeedFlood seed(g, 1234);
  const auto t0 = std::chrono::steady_clock::now();
  seed.run(ttl);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double seed_eps = static_cast<double>(seed.events) / secs;
  require(seed.events == row.events,
          "seed-queue replica diverged from the engine");
  row.speedup_vs_seed = row.events_per_sec / seed_eps;
  std::printf("%-18s %-10s n=%-6d events=%-9lld secs=%7.3f "
              "events/sec=%11.0f peak_queue=%zu  -> speedup %.2fx\n",
              (name + "_seedq").c_str(), "grid", side * side,
              static_cast<long long>(seed.events), secs, seed_eps, seed.peak,
              row.speedup_vs_seed);
  return row;
}

Row flood_gnp(const std::string& name, int n, std::int64_t ttl) {
  Rng rng(5);
  Graph g = connected_gnp(n, 0.15, WeightSpec::uniform(1, 32), rng);
  Network net(
      g, [ttl](NodeId) { return std::make_unique<Storm>(ttl); },
      make_uniform_delay(0.1, 0.9), 4321);
  return timed(name, "gnp", n, net, [&] { return net.run(); });
}

Row ping_ring(const std::string& name, int n, int tokens, int laps) {
  Rng rng(7);
  Graph g = cycle_graph(n, WeightSpec::constant(2), rng);
  const std::int64_t hops = static_cast<std::int64_t>(n) * laps;
  Network net(
      g,
      [&](NodeId v) { return std::make_unique<RingToken>(v, n, tokens, hops); },
      make_uniform_delay(0.1, 0.9), 99);
  return timed(name, "cycle", n, net, [&] { return net.run(); });
}

Row sync_flood_grid(const std::string& name, int side, std::int64_t ttl) {
  Rng rng(7);
  Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
  SyncEngine eng(g, [ttl](NodeId) { return std::make_unique<SyncStorm>(ttl); });
  return timed(name, "grid", side * side, eng, [&] { return eng.run(); });
}

// Runs the workload named by spec.algo and reports it as a harness row
// (metrics only, no bound checks — throughput has no paper claim).
bench::RowResult run_workload(const bench::RowSpec& spec) {
  Row row;
  if (spec.algo == "flood_grid_10k") {
    row = flood_grid(spec.algo, 16, 7, /*with_baseline=*/true);
  } else if (spec.algo == "ping_ring_10k") {
    row = ping_ring(spec.algo, 128, 8, 10);
  } else if (spec.algo == "sync_flood_10k") {
    row = sync_flood_grid(spec.algo, 16, 7);
  } else if (spec.algo == "flood_grid_100k") {
    row = flood_grid(spec.algo, 32, 8);
  } else if (spec.algo == "flood_grid_1M") {
    row = flood_grid(spec.algo, 64, 11, /*with_baseline=*/true);
  } else if (spec.algo == "flood_gnp_2M") {
    row = flood_gnp(spec.algo, 256, 3);
  } else if (spec.algo == "ping_ring_1M") {
    row = ping_ring(spec.algo, 1024, 32, 30);
  } else if (spec.algo == "ping_ring_10M") {
    row = ping_ring(spec.algo, 1024, 64, 150);
  } else {
    if (spec.algo != "sync_flood_1M") {
      require(false, "bench_engine: unknown workload " + spec.algo);
    }
    row = sync_flood_grid(spec.algo, 64, 11);
  }
  bench::RowResult out;
  out.measured.push_back({"events", static_cast<double>(row.events)});
  out.measured.push_back({"seconds", row.seconds});
  out.measured.push_back({"events_per_sec", row.events_per_sec});
  out.measured.push_back(
      {"peak_queue_depth", static_cast<double>(row.peak_queue_depth)});
  if (row.speedup_vs_seed > 0) {
    out.measured.push_back({"speedup_vs_seed", row.speedup_vs_seed});
  }
  return out;
}

bench::SweepSpec engine_spec() {
  bench::SweepSpec spec;
  spec.table = "engine";
  spec.title = "Engine event throughput (wall-clock, not a table repro)";
  spec.run = run_workload;
  spec.rows.push_back({"flood_grid_100k", "grid", 32 * 32});
  spec.rows.push_back({"flood_grid_1M", "grid", 64 * 64});
  spec.rows.push_back({"flood_gnp_2M", "gnp", 256});
  spec.rows.push_back({"ping_ring_1M", "cycle", 1024});
  spec.rows.push_back({"ping_ring_10M", "cycle", 1024});
  spec.rows.push_back({"sync_flood_1M", "grid", 64 * 64});
  spec.smoke_rows.push_back({"flood_grid_10k", "grid", 16 * 16});
  spec.smoke_rows.push_back({"ping_ring_10k", "cycle", 128});
  spec.smoke_rows.push_back({"sync_flood_10k", "grid", 16 * 16});
  bench::finalize_rows(spec);
  return spec;
}

// ---- parallel scaling (BENCH_parallel.json) -------------------------
//
// Two independent axes of parallelism, measured against the same-seed
// sequential execution run back-to-back on the same machine:
//
//   * shard_engine: one flood storm on the sharded conservative engine
//     at 1/2/4/8 shards (threads = shards), vs the keyed sequential
//     Network. The ledgers are asserted bit-identical before the timing
//     is trusted — a fast wrong engine is not a speedup.
//   * multi_run: a sweep of independent whole runs (split()-derived
//     seeds) through the RunPool harness at 1/2/4/8 workers, vs the
//     same sweep on one worker.
//
// speedup_vs_seq is recorded honestly for whatever machine runs this;
// hardware_concurrency is written alongside so a 1-core container's
// ~1x numbers are interpretable.

struct ParRow {
  int shards = 0;
  int threads = 0;
  std::int64_t events = 0;
  double seconds = 0;
  double events_per_sec = 0;
  double speedup_vs_seq = 0;
};

struct MultiRow {
  int jobs = 0;
  int runs = 0;
  std::int64_t events = 0;
  double seconds = 0;
  double speedup_vs_seq = 0;
};

void write_parallel_json(const std::string& path, bool smoke,
                         const std::vector<ParRow>& shard_rows,
                         const std::vector<MultiRow>& multi_rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_engine: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"parallel_scaling\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"shard_engine\": [\n";
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const ParRow& r = shard_rows[i];
    out << "    {\"shards\": " << r.shards << ", \"threads\": " << r.threads
        << ", \"events\": " << r.events << ", \"seconds\": " << r.seconds
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"speedup_vs_seq\": " << r.speedup_vs_seq << "}"
        << (i + 1 < shard_rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"multi_run\": [\n";
  for (std::size_t i = 0; i < multi_rows.size(); ++i) {
    const MultiRow& r = multi_rows[i];
    out << "    {\"jobs\": " << r.jobs << ", \"runs\": " << r.runs
        << ", \"events\": " << r.events << ", \"seconds\": " << r.seconds
        << ", \"speedup_vs_seq\": " << r.speedup_vs_seq << "}"
        << (i + 1 < multi_rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

void bench_parallel(bool smoke, const std::string& path) {
  // Shard-engine scaling: one storm, keyed sequential reference.
  const int side = smoke ? 12 : 32;
  const std::int64_t ttl = smoke ? 6 : 8;
  Rng rng(7);
  Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
  const auto factory = [ttl](NodeId) { return std::make_unique<Storm>(ttl); };

  Network ref(g, factory, make_uniform_delay(0.1, 0.9), 1234);
  ref.set_keyed_delays(true);
  const auto r0 = std::chrono::steady_clock::now();
  const RunStats seq = ref.run();
  const double seq_secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
  std::printf("%-18s %-10s n=%-6d events=%-9lld secs=%7.3f (keyed seq "
              "reference)\n",
              "par_flood_seq", "grid", side * side,
              static_cast<long long>(seq.events), seq_secs);

  std::vector<ParRow> shard_rows;
  for (const int k : {1, 2, 4, 8}) {
    ShardEngine eng(g, factory, make_uniform_delay(0.1, 0.9), 1234,
                    ShardEngine::Options{k, 0, {}});
    const auto t0 = std::chrono::steady_clock::now();
    const RunStats stats = eng.run();
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    require(stats.events == seq.events &&
                stats.completion_time == seq.completion_time &&
                stats.algorithm_cost == seq.algorithm_cost,
            "sharded engine diverged from the sequential reference");
    ParRow row;
    row.shards = k;
    row.threads = k;
    row.events = stats.events;
    row.seconds = secs;
    row.events_per_sec =
        static_cast<double>(stats.events) / std::max(secs, 1e-12);
    row.speedup_vs_seq = seq_secs / std::max(secs, 1e-12);
    std::printf("%-18s %-10s n=%-6d events=%-9lld secs=%7.3f "
                "events/sec=%11.0f  -> speedup %.2fx\n",
                ("par_flood_s" + std::to_string(k)).c_str(), "grid",
                side * side, static_cast<long long>(row.events), row.seconds,
                row.events_per_sec, row.speedup_vs_seq);
    shard_rows.push_back(row);
  }

  // Multi-run harness scaling: independent whole runs, split seeds.
  const int runs = 8;
  const int run_side = smoke ? 10 : 24;
  const std::int64_t run_ttl = smoke ? 5 : 7;
  Rng rng2(11);
  Graph g2 = grid_graph(run_side, run_side, WeightSpec::uniform(1, 16), rng2);
  Rng seeds(9000);
  const auto one_run = [&](std::size_t i) {
    Network net(
        g2, [run_ttl](NodeId) { return std::make_unique<Storm>(run_ttl); },
        make_uniform_delay(0.1, 0.9), seeds.split(i).seed());
    return net.run().events;
  };

  std::vector<MultiRow> multi_rows;
  double base_secs = 0;
  for (const int jobs : {1, 2, 4, 8}) {
    RunPool pool(jobs);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::int64_t> events = pool.map(runs, one_run);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::int64_t total = 0;
    for (const std::int64_t e : events) total += e;
    if (jobs == 1) base_secs = secs;
    MultiRow row;
    row.jobs = jobs;
    row.runs = runs;
    row.events = total;
    row.seconds = secs;
    row.speedup_vs_seq = base_secs / std::max(secs, 1e-12);
    std::printf("%-18s %-10s n=%-6d events=%-9lld secs=%7.3f "
                "jobs=%d  -> speedup %.2fx\n",
                "par_multirun", "grid", run_side * run_side,
                static_cast<long long>(total), secs, jobs,
                row.speedup_vs_seq);
    multi_rows.push_back(row);
  }

  write_parallel_json(path, smoke, shard_rows, multi_rows);
}

}  // namespace
}  // namespace csca

int main(int argc, char** argv) {
  using namespace csca;
  bool smoke = false;
  std::string out_path = "BENCH_engine.json";
  std::string par_out_path = "BENCH_parallel.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--par-out=", 10) == 0) {
      par_out_path = argv[i] + 10;
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine [--smoke] [--out=PATH] "
                   "[--par-out=PATH]\n");
      return 2;
    }
  }

  // jobs pinned to 1: the rows time wall-clock, so concurrency would
  // corrupt the measurement.
  const bench::SweepRunner runner({/*jobs=*/1, smoke});
  const bench::TableResult table = runner.run(engine_spec());
  std::ofstream out(out_path);
  if (out) {
    out << bench::render_table_json(table);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "bench_engine: cannot write %s\n", out_path.c_str());
  }
  bench_parallel(smoke, par_out_path);
  if (!table.pass()) {
    for (const auto& row : table.rows) {
      if (row.failed) {
        std::fprintf(stderr, "bench_engine: row %s failed: %s\n",
                     row.spec.algo.c_str(), row.error.c_str());
      }
    }
    return 1;
  }
  return 0;
}
