// plan_send, table-driven: the fate order every engine shares (loss
// precedence and where the delay draw sits in it), what a plan charges
// and clamps, the duplicate's clamp, and the pulse-domain arrival rule.
// Plus the per-link accessors every ProcessHost engine reads from its
// ChannelLedger.
#include "sim/send_pipeline.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"

namespace csca {
namespace {

// Hands out a fixed script of delays from the shared-stream entry point
// and counts the draws, so a test sees exactly when a plan draws.
class ScriptedDelay final : public DelayModel {
 public:
  explicit ScriptedDelay(std::deque<double> script)
      : script_(std::move(script)) {}
  double delay(Weight, Rng&) override {
    ++draws;
    const double d = script_.front();
    script_.pop_front();
    return d;
  }
  int draws = 0;

 private:
  std::deque<double> script_;
};

// One edge 0 -- 1 of weight 4; node 0 sends on it at t = 10.
Graph one_edge() {
  Graph g(2);
  g.add_edge(0, 1, 4);
  return g;
}
constexpr double kNow = 10.0;

struct LossCase {
  const char* name;
  FaultPlan plan;
  bool charged;
  bool lost;
  FaultDropReason loss;
  int draws;  // delay draws made while planning
};

FaultPlan with_crashes(std::vector<CrashEvent> crashes, double drop = 0) {
  FaultPlan p;
  p.crashes = std::move(crashes);
  p.drop_rate = drop;
  return p;
}

FaultPlan with_outage(double down, double up,
                      std::vector<CrashEvent> crashes = {}, double drop = 0) {
  FaultPlan p = with_crashes(std::move(crashes), drop);
  p.outages = {LinkOutage{0, down, up}};
  return p;
}

// The draw (2.0) puts the arrival at 12, so an outage or crash at 11
// strikes between send and arrival.
TEST(SendPipeline, LossReasonsFollowTheFateOrder) {
  const Graph g = one_edge();
  const LossCase cases[] = {
      {"crashed sender before everything",
       with_outage(5, 20, {{0, 5.0}}, 1.0), false, false,
       FaultDropReason::kChannelDrop, 0},
      {"channel drop before link down at send", with_outage(5, 20, {}, 1.0),
       true, true, FaultDropReason::kChannelDrop, 0},
      {"link down at send before receiver crash",
       with_outage(5, 11, {{1, 11.0}}), true, true,
       FaultDropReason::kLinkDown, 0},
      {"link down at arrival before receiver crash",
       with_outage(11, 20, {{1, 11.0}}), true, true,
       FaultDropReason::kLinkDown, 1},
      {"receiver crashed at arrival", with_crashes({{1, 11.0}}), true, true,
       FaultDropReason::kReceiverCrashed, 1},
      {"delivered just before the faults", with_outage(12.5, 20, {{1, 12.5}}),
       true, false, FaultDropReason::kChannelDrop, 1},
  };
  for (const LossCase& c : cases) {
    SCOPED_TRACE(c.name);
    const FaultInjector faults(c.plan, g, 1);
    ScriptedDelay model({2.0});
    Rng rng(1);
    ChannelLedger ledger(g.edge_count());
    const SendSite site = send_site(g, 0, 0);
    // The engines' step in miniature: a charged plan bills the ledger,
    // whose per-channel total is the next send's count.
    const SendPlan p =
        plan_send(site, ledger.sends(site.channel), kNow, 0.0, &faults,
                  DrawnArrival{&model, &rng, 0, false});
    if (p.charged) ledger.charge(site.channel, MsgClass::kAlgorithm);
    EXPECT_EQ(p.charged, c.charged);
    EXPECT_EQ(ledger.sends(site.channel), c.charged ? 1u : 0u);
    EXPECT_EQ(p.lost, c.lost);
    if (c.lost) {
      EXPECT_EQ(p.loss, c.loss);
    }
    EXPECT_EQ(model.draws, c.draws);
    // Only a delivered send commits the FIFO clamp.
    EXPECT_EQ(p.commit_clamp, c.charged && !c.lost);
    if (c.charged && !c.lost) {
      EXPECT_EQ(p.arrival, 12.0);
    }
    EXPECT_FALSE(p.duplicate);
  }
}

TEST(SendPipeline, FaultFreePlanIsAClampedDelivery) {
  const Graph g = one_edge();
  ScriptedDelay model({2.0, 1.0});
  Rng rng(1);
  const SendSite site = send_site(g, 0, 1);
  EXPECT_EQ(site.to, 0);
  EXPECT_EQ(site.channel, 1u);
  const DrawnArrival rule{&model, &rng, 0, false};
  const SendPlan first = plan_send(site, 0, kNow, 0.0, nullptr, rule);
  EXPECT_TRUE(first.charged);
  EXPECT_FALSE(first.lost);
  EXPECT_TRUE(first.commit_clamp);
  EXPECT_EQ(first.delay, 2.0);
  EXPECT_EQ(first.arrival, 12.0);
  // FIFO: the next send cannot overtake the committed arrival.
  const SendPlan second =
      plan_send(site, 1, kNow, first.arrival, nullptr, rule);
  EXPECT_EQ(second.delay, 1.0);
  EXPECT_EQ(second.arrival, 12.0);
}

TEST(SendPipeline, DrawRangeIsCheckedOnce) {
  const Graph g = one_edge();
  const SendSite site = send_site(g, 0, 0);
  Rng rng(1);
  ScriptedDelay too_long({4.5});
  EXPECT_THROW(plan_send(site, 0, kNow, 0.0, nullptr,
                         DrawnArrival{&too_long, &rng, 0, false}),
               PreconditionError);
  // The parallel engines also hold a draw to the model's declared
  // lookahead floor; a model that breaks its own floor is caught there.
  class LyingFloor final : public DelayModel {
   public:
    double delay(Weight, Rng&) override { return 1.0; }
    double min_delay(EdgeId, Weight) const override { return 2.0; }
  } lying;
  EXPECT_NO_THROW(plan_send(site, 0, kNow, 0.0, nullptr,
                            DrawnArrival{&lying, &rng, 0, false}));
  EXPECT_THROW(plan_send(site, 0, kNow, 0.0, nullptr,
                         DrawnArrival{&lying, &rng, 0, true}),
               PreconditionError);
  EXPECT_THROW(send_site(g, 0, 5), PreconditionError);
}

TEST(SendPipeline, DuplicateClampsBehindTheOriginalWithoutCommitting) {
  const Graph g = one_edge();
  FaultPlan dup;
  dup.dup_rate = 1.0;
  const FaultInjector faults(dup, g, 1);
  const SendSite site = send_site(g, 0, 0);
  Rng rng(1);

  // A quick duplicate lands behind the original, not before it.
  ScriptedDelay quick({3.0, 1.0});
  const SendPlan a = plan_send(site, 0, kNow, 0.0, &faults,
                               DrawnArrival{&quick, &rng, 0, false});
  EXPECT_TRUE(a.duplicate);
  EXPECT_TRUE(a.commit_clamp);
  EXPECT_EQ(a.arrival, 13.0);
  EXPECT_EQ(a.dup_arrival, 13.0);

  // A slow duplicate does not become the clamp: the engine commits the
  // original's arrival, so the next send may land before the duplicate.
  ScriptedDelay slow({1.0, 3.5, 0.5});
  const DrawnArrival rule{&slow, &rng, 0, false};
  const SendPlan b = plan_send(site, 0, kNow, 0.0, &faults, rule);
  EXPECT_EQ(b.arrival, 11.0);
  EXPECT_EQ(b.dup_arrival, 13.5);
  const SendPlan next = plan_send(site, 1, kNow, b.arrival, nullptr, rule);
  EXPECT_EQ(next.arrival, 11.0);
  EXPECT_LT(next.arrival, b.dup_arrival);

  // A duplicate whose own arrival finds the link down is dropped
  // silently; the original still arrives.
  FaultPlan dup_then_down = dup;
  dup_then_down.outages = {LinkOutage{0, 12.0, 20.0}};
  const FaultInjector late(dup_then_down, g, 1);
  ScriptedDelay split({1.0, 3.0});
  const SendPlan c = plan_send(site, 0, kNow, 0.0, &late,
                               DrawnArrival{&split, &rng, 0, false});
  EXPECT_FALSE(c.lost);
  EXPECT_FALSE(c.duplicate);
  EXPECT_EQ(split.draws, 2);
}

TEST(SendPipeline, PulseArrivalsArePPlusWAndPPlusTwoW) {
  const Graph g = one_edge();
  const SendSite site = send_site(g, 0, 0);
  const SendPlan plain = plan_send(site, 0, 7.0, 0.0, nullptr, PulseArrival{});
  EXPECT_EQ(plain.arrival, 11.0);
  EXPECT_FALSE(plain.commit_clamp);
  FaultPlan dup;
  dup.dup_rate = 1.0;
  const FaultInjector faults(dup, g, 1);
  const SendPlan doubled =
      plan_send(site, 0, 7.0, 0.0, &faults, PulseArrival{});
  EXPECT_EQ(doubled.arrival, 11.0);
  EXPECT_TRUE(doubled.duplicate);
  EXPECT_EQ(doubled.dup_arrival, 15.0);
}

// Node 0 sends one message {1, 2, 3} to node 1; node 1 keeps every copy.
class Recorder final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) {
      ctx.send(0, Message{5, {1, 2, 3}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context&, const Message& m) override { got.push_back(m); }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<Recorder>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const Recorder&>(saved);
  }
  std::vector<Message> got;
};

TEST(SendPipeline, DuplicatedEquivocationDeliversTwoIdenticalCopies) {
  const Graph g = one_edge();
  FaultPlan plan;
  plan.dup_rate = 1.0;
  plan.byzantine = {0};
  plan.equivocate_rate = 1.0;
  const FaultInjector faults(plan, g, 3);
  Network net(g, [](NodeId) { return std::make_unique<Recorder>(); },
              std::make_unique<ExactDelay>(), 3);
  net.set_faults(&faults);
  net.run();
  const auto& got = net.process_as<Recorder>(1).got;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, got[1].type);
  EXPECT_EQ(got[0].data, got[1].data);
  EXPECT_FALSE(got[0].data == (Payload{1, 2, 3}));
  EXPECT_EQ(net.edge_message_count(0), 1);  // the duplicate is not a send
}

// Every ProcessHost engine reads its per-link counts from a
// ChannelLedger, which range-checks the edge id.
TEST(ChannelLedger, EdgeIdsOutOfRangeThrowOnEveryHost) {
  const Graph g = one_edge();
  const auto factory = [](NodeId) { return std::make_unique<Recorder>(); };
  Network net(g, factory, std::make_unique<ExactDelay>(), 1);
  ShardEngine shard(g, factory, std::make_unique<ExactDelay>(), 1,
                    ShardEngine::Options{2, 2, {}});
  TimeWarpEngine tw(g, factory, std::make_unique<ExactDelay>(), 1,
                    TimeWarpEngine::Options{2, 2, 4, {}});
  net.run();
  shard.run();
  tw.run();
  const ProcessHost* hosts[] = {&net, &shard, &tw};
  for (const ProcessHost* host : hosts) {
    EXPECT_EQ(host->edge_message_count(0), 1);
    EXPECT_EQ(host->edge_message_count(0, MsgClass::kAlgorithm), 1);
    EXPECT_EQ(host->max_edge_message_count(), 1);
    for (EdgeId bad : {EdgeId{-1}, EdgeId{g.edge_count()}}) {
      EXPECT_THROW(host->edge_message_count(bad), PreconditionError) << bad;
      EXPECT_THROW(host->edge_message_count(bad, MsgClass::kControl),
                   PreconditionError)
          << bad;
    }
  }
}

}  // namespace
}  // namespace csca
