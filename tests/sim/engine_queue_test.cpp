// Engine-level checks of the shared EventHeap: a workload whose every
// slice sits at one time, on both engines that schedule through it.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/network.h"
#include "sim/sync_engine.h"

namespace csca {
namespace {

constexpr std::int64_t kHops = 80;

// Every node sends one token; each receiver forwards it along its own
// first incident edge until kHops hops are spent.
class Relay final : public Process {
 public:
  void on_start(Context& ctx) override {
    ctx.send(ctx.incident()[0], Message{0, {kHops}}, MsgClass::kAlgorithm);
  }
  void on_message(Context& ctx, const Message& m) override {
    if (m.at(0) > 0) {
      ctx.send(ctx.incident()[0], Message{0, {m.at(0) - 1}},
               MsgClass::kAlgorithm);
    }
  }
};

class SyncRelay final : public SyncProcess {
 public:
  void on_start(SyncContext& ctx) override {
    ctx.send(ctx.incident()[0], Message{0, {kHops}}, MsgClass::kAlgorithm);
  }
  void on_message(SyncContext& ctx, const Message& m) override {
    if (m.at(0) > 0) {
      ctx.send(ctx.incident()[0], Message{0, {m.at(0) - 1}},
               MsgClass::kAlgorithm);
    }
  }
};

// With unit weights and exact delays all 4096 pending tokens share one
// time at every step, so no horizon width can split a slice. Halving the
// width on such slices once collapsed the horizon onto the earliest
// staged time after ~48 sweeps: the sweep moved nothing and the next pop
// read an empty run tier (a crash in the keyed Network, a garbage
// message in the SyncEngine).
TEST(EngineQueue, SingleTimeRelayDeliversOnBothEngines) {
  Rng rng(1);
  const Graph g = grid_graph(64, 64, WeightSpec::constant(1), rng);
  const std::int64_t deliveries = 4096 * (kHops + 1);

  Network net(g, [](NodeId) { return std::make_unique<Relay>(); },
              make_exact_delay());
  net.set_keyed_delays(true);
  const RunStats seq = net.run();
  EXPECT_EQ(seq.events, deliveries);
  EXPECT_EQ(seq.algorithm_cost, deliveries);
  EXPECT_DOUBLE_EQ(seq.completion_time, kHops + 1);

  SyncEngine sync(g, [](NodeId) { return std::make_unique<SyncRelay>(); });
  const RunStats pulse = sync.run();
  EXPECT_EQ(pulse.events, deliveries);
  EXPECT_EQ(pulse.algorithm_cost, seq.algorithm_cost);
  EXPECT_DOUBLE_EQ(pulse.completion_time, kHops + 1);

  // One sweep per time step, each reading just the slice it moves; no
  // event is ever pushed below the horizon.
  for (const QueueCounters& c : {net.queue_counters(), sync.queue_counters()}) {
    EXPECT_EQ(c.sweeps, static_cast<std::uint64_t>(kHops + 1));
    EXPECT_EQ(c.scanned, static_cast<std::uint64_t>(deliveries));
    EXPECT_EQ(c.young_pushes, 0u);
    EXPECT_EQ(c.rehorizons, 0u);
  }
}

}  // namespace
}  // namespace csca
