// Byzantine fault classes: equivocation (channel-keyed conflicting
// payloads) and forgery (corruption that passes the ARQ checksum), and
// the containment rule that bounds faulty influence to the plan's
// corruption set. Each class gets a positive test (the corruption
// demonstrably happens / the violation is caught and names the node)
// and a negative one (honest traffic untouched / a correctly-configured
// checker stays clean).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/byzantine_check.h"
#include "check/invariants.h"
#include "conn/flood.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/reliable_link.h"
#include "graph/generators.h"
#include "sim/delay.h"
#include "sim/network.h"

namespace csca {
namespace {

constexpr int kPayload = 7;

// Star: node 0 center, nodes 1..n-1 leaves, all weights 1.
Graph star(int n) {
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v, 1);
  return g;
}

// Node 0 broadcasts one identical payload on every incident edge; every
// receiver records the payload it saw.
class Broadcast final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{kPayload, {41, 43}}, MsgClass::kAlgorithm);
    }
    ctx.finish();
  }
  void on_message(Context& ctx, const Message& m) override {
    received.assign(m.data.begin(), m.data.end());
    ctx.finish();
  }
  std::vector<std::int64_t> received;
};

FaultPlan equiv_plan(double rate = 1.0) {
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.equivocate_rate = rate;
  return plan;
}

// Equivocation positive: with rate 1 every copy node 0 sends is
// corrupted with a *channel-keyed* mask, so the leaves of a star
// receive conflicting payloads — and none receives the honest one.
TEST(Byzantine, EquivocationDeliversConflictingPayloads) {
  const Graph g = star(5);
  const FaultInjector inj(equiv_plan(), g, 42);
  Network net(
      g, [](NodeId) { return std::make_unique<Broadcast>(); },
      make_exact_delay(), 42);
  net.set_faults(&inj);
  net.run();

  std::map<std::vector<std::int64_t>, int> seen;
  for (NodeId v = 1; v < g.node_count(); ++v) {
    const auto& got = net.process_as<Broadcast>(v).received;
    ASSERT_EQ(got.size(), 2u) << "node " << v;
    EXPECT_NE(got, (std::vector<std::int64_t>{41, 43}))
        << "node " << v << " got the honest payload despite rate 1";
    ++seen[got];
  }
  EXPECT_GT(seen.size(), 1u)
      << "equivocation must send different corruptions per channel";
}

// Equivocation negative: only sends *from* the corruption set are
// touched. The leaves reply with the honest payload over the same
// edges; node 0's copy of their replies must arrive intact.
class EchoBack final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    ctx.send(ctx.incident()[0], Message{kPayload, {41, 43}},
             MsgClass::kAlgorithm);
  }
  void on_message(Context& ctx, const Message& m) override {
    received.emplace_back(m.data.begin(), m.data.end());
    if (ctx.self() != 0) {
      ctx.send(m.edge, Message{kPayload, {41, 43}}, MsgClass::kAlgorithm);
    }
    ctx.finish();
  }
  std::vector<std::vector<std::int64_t>> received;
};

TEST(Byzantine, HonestSendersAreUntouched) {
  const Graph g = star(4);
  const FaultInjector inj(equiv_plan(), g, 42);
  Network net(
      g, [](NodeId) { return std::make_unique<EchoBack>(); },
      make_exact_delay(), 42);
  net.set_faults(&inj);
  net.run();
  const auto& got = net.process_as<EchoBack>(0).received;
  ASSERT_FALSE(got.empty());
  for (const auto& payload : got) {
    EXPECT_EQ(payload, (std::vector<std::int64_t>{41, 43}))
        << "honest reply corrupted";
  }
}

// Forgery positive (frame level): FaultInjector::forge must corrupt an
// ARQ DATA frame while keeping arq_frame_valid true — damage the
// reliable-link layer cannot detect. At least one keyed draw must
// actually change the frame body.
TEST(Byzantine, ForgedArqFramesPassTheChecksum) {
  const Graph g = star(3);
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.forge_rate = 1.0;
  const FaultInjector inj(plan, g, 42);

  const Message frame = arq_make_data(3, Message{kPayload, {11, 22, 33}});
  ASSERT_TRUE(arq_frame_valid(frame));
  int changed = 0;
  for (std::uint64_t count = 0; count < 16; ++count) {
    Message forged = frame;
    inj.forge(/*channel=*/0, count, forged);
    EXPECT_TRUE(arq_frame_valid(forged)) << "count " << count;
    if (forged.data != frame.data) ++changed;
  }
  EXPECT_GT(changed, 0) << "forgery never altered the frame";

  // Unframed traffic has no checksum to re-patch: the corruption lands
  // as-is and the message must differ.
  const Message plainm{kPayload, {11, 22, 33}};
  Message forged = plainm;
  inj.forge(/*channel=*/0, /*count=*/0, forged);
  EXPECT_TRUE(forged.data != plainm.data || forged.type != plainm.type);
}

// Forgery positive (end to end): an ARQ-wrapped broadcast under a
// forging byzantine sender completes with forgeries on the wire and
// *zero* checksum rejections — the receivers accepted every forged
// frame as valid.
TEST(Byzantine, ForgeryIsInvisibleToArqReceivers) {
  const Graph g = star(12);
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.forge_rate = 0.5;
  const FaultInjector inj(plan, g, 42);
  const auto factory =
      arq_factory([](NodeId) { return std::make_unique<Broadcast>(); });
  Network net(g, factory, make_exact_delay(), 42);
  net.set_faults(&inj);
  ByzantineContainmentChecker checker(plan.byzantine);
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  net.set_observer(nullptr);

  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_GT(checker.total_forgeries(), 0);
  EXPECT_EQ(checker.total_equivocations(), 0);
  for (NodeId v = 1; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident(v)) {
      EXPECT_EQ(arq_host(net, v).corrupt_frames(e), 0)
          << "a forged frame was detected — forgery must pass the checksum";
    }
  }
}

// Containment positive: a checker configured with a *smaller* corruption
// set than the plan's catches the uncovered node's corruption and names
// it.
TEST(ByzantineContainment, ViolationIsCaughtAndNamesTheNode) {
  const Graph g = star(5);
  const FaultInjector inj(equiv_plan(), g, 42);
  Network net(
      g, [](NodeId) { return std::make_unique<Broadcast>(); },
      make_exact_delay(), 42);
  net.set_faults(&inj);
  ByzantineContainmentChecker checker(/*allowed=*/{});
  net.set_observer(&checker);
  net.run();
  net.set_observer(nullptr);

  ASSERT_FALSE(checker.ok());
  const std::string& v = checker.violations().front();
  EXPECT_NE(v.find("byzantine containment violated"), std::string::npos) << v;
  EXPECT_NE(v.find("equivocation"), std::string::npos) << v;
  EXPECT_NE(v.find("node 0"), std::string::npos) << v;
}

TEST(ByzantineContainment, ForgeryViolationIsCaughtAndNamed) {
  const Graph g = star(4);
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.forge_rate = 1.0;
  const FaultInjector inj(plan, g, 42);
  Network net(
      g, [](NodeId) { return std::make_unique<Broadcast>(); },
      make_exact_delay(), 42);
  net.set_faults(&inj);
  ByzantineContainmentChecker checker(/*allowed=*/{1});
  net.set_observer(&checker);
  net.run();
  net.set_observer(nullptr);

  ASSERT_FALSE(checker.ok());
  const std::string& v = checker.violations().front();
  EXPECT_NE(v.find("forgery"), std::string::npos) << v;
  EXPECT_NE(v.find("node 0"), std::string::npos) << v;
}

// Containment negative: with the checker configured to exactly the
// plan's corruption set, a corrupting run is clean, the per-node
// tallies land on the byzantine node only, and the keyed-stream replay
// (check_final) agrees with the observed events.
TEST(ByzantineContainment, MatchingCorruptionSetStaysClean) {
  const Graph g = star(5);
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.equivocate_rate = 0.5;
  plan.forge_rate = 0.25;
  const FaultInjector inj(plan, g, 42);
  const auto factory =
      arq_factory([](NodeId) { return std::make_unique<Broadcast>(); });
  Network net(g, factory, make_exact_delay(), 42);
  net.set_faults(&inj);
  ByzantineContainmentChecker checker(plan.byzantine);
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  net.set_observer(nullptr);

  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_GT(checker.total_equivocations() + checker.total_forgeries(), 0);
  EXPECT_EQ(checker.equivocations(0), checker.total_equivocations());
  EXPECT_EQ(checker.forgeries(0), checker.total_forgeries());
  for (NodeId v = 1; v < g.node_count(); ++v) {
    EXPECT_EQ(checker.equivocations(v), 0) << "node " << v;
    EXPECT_EQ(checker.forgeries(v), 0) << "node " << v;
  }
}

// An inactive byzantine configuration (corruption set without rates, or
// rates without a corruption set) must not corrupt anything.
TEST(ByzantineContainment, InactiveConfigurationsAreNoOps) {
  const Graph g = star(4);
  for (const bool with_set : {true, false}) {
    FaultPlan plan;
    if (with_set) {
      plan.byzantine.push_back(0);  // no rates
    } else {
      plan.equivocate_rate = 1.0;  // no corruption set
    }
    EXPECT_FALSE(plan.active());
    const FaultInjector inj(plan, g, 42);
    Network net(
        g, [](NodeId) { return std::make_unique<Broadcast>(); },
        make_exact_delay(), 42);
    net.set_faults(&inj);
    ByzantineContainmentChecker checker(/*allowed=*/{});
    net.set_observer(&checker);
    net.run();
    net.set_observer(nullptr);
    EXPECT_TRUE(checker.ok());
    for (NodeId v = 1; v < g.node_count(); ++v) {
      EXPECT_EQ(net.process_as<Broadcast>(v).received,
                (std::vector<std::int64_t>{41, 43}))
          << "node " << v;
    }
  }
}

// Equivocation behind ARQ: an equivocated frame fails its checksum and
// the receiver discards it, exactly like a garbled one. The invariant
// checker's masking rule counts equivocations as a legal source of
// invalid frames, so a correct equivocating run on the keyed Network
// (with drops, duplicates and garbles mixed in) is clean.
TEST(ByzantineArq, EquivocationBehindArqPassesTheMaskingRule) {
  Rng rng(17);
  const Graph g = connected_gnp(14, 0.3, WeightSpec::uniform(1, 9), rng);
  FaultPlan plan;
  plan.byzantine = {3, 9};
  plan.equivocate_rate = 0.3;
  plan.drop_rate = 0.05;
  plan.dup_rate = 0.1;
  plan.garble_rate = 0.05;
  plan.salt = 0xE0;
  const FaultInjector inj(plan, g, 8);
  const auto factory = arq_factory(
      [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); });
  Network net(g, factory, make_uniform_delay(0, 1), 8);
  net.set_keyed_delays(true);
  net.set_faults(&inj);
  DefaultInvariantChecker checker;
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  checker.check_arq(net);
  net.set_observer(nullptr);

  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? "suppressed"
                                    : checker.violations().front());
  EXPECT_GT(checker.equivocations_seen(), 0);
  EXPECT_GT(checker.invalid_arq_frames_seen(), 0);
  EXPECT_LE(checker.invalid_arq_frames_seen(),
            checker.garbles_seen() + checker.equivocations_seen());
  std::int64_t corrupt = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident(v)) {
      corrupt += arq_host(net, v).corrupt_frames(e);
    }
    EXPECT_TRUE(dynamic_cast<FloodProcess&>(arq_inner(net, v)).reached())
        << "node " << v;
  }
  EXPECT_EQ(corrupt, checker.invalid_arq_frames_seen());
}

// A duplicated equivocation delivers two identically corrupted copies;
// with every send duplicated, each equivocated frame arrives invalid
// twice and both copies count against the channel's equivocations.
TEST(ByzantineArq, DuplicatedEquivocationsCountBothCopies) {
  const Graph g = star(6);
  FaultPlan plan;
  plan.byzantine.push_back(0);
  plan.equivocate_rate = 0.5;
  plan.dup_rate = 1.0;
  const FaultInjector inj(plan, g, 42);
  const auto factory =
      arq_factory([](NodeId) { return std::make_unique<Broadcast>(); });
  Network net(g, factory, make_exact_delay(), 42);
  net.set_keyed_delays(true);
  net.set_faults(&inj);
  DefaultInvariantChecker checker;
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  checker.check_arq(net);
  net.set_observer(nullptr);

  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? "suppressed"
                                    : checker.violations().front());
  EXPECT_GT(checker.invalid_arq_frames_seen(), 0);
  EXPECT_EQ(checker.invalid_arq_frames_seen() % 2, 0);
  EXPECT_EQ(checker.invalid_arq_frames_seen(), checker.equivocations_seen());
}

// The masking rule still has teeth per channel: while the byzantine
// node 0 equivocates toward node 1, an honest node 1 sending a broken
// frame back has no garble or equivocation behind it on *its* channel,
// and the checker reports exactly that channel.
TEST(ByzantineArq, InvalidFrameWithoutGarbleOrEquivocationIsReported) {
  class Sender final : public Process {
   public:
    void on_start(Context& ctx) override {
      Message frame = arq_make_data(0, Message{kPayload, {1}});
      // Node 1 breaks the checksum itself; node 0's frame is honest
      // until the injector equivocates it.
      if (ctx.self() == 1) frame.data[frame.data.size() - 1] ^= 1;
      ctx.send(0, std::move(frame), MsgClass::kAlgorithm);
    }
    void on_message(Context&, const Message&) override {}
  };
  const Graph g = star(2);
  const FaultInjector inj(equiv_plan(), g, 42);
  Network net(g, [](NodeId) { return std::make_unique<Sender>(); },
              make_exact_delay(), 42);
  net.set_keyed_delays(true);
  net.set_faults(&inj);
  DefaultInvariantChecker checker;
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  net.set_observer(nullptr);

  EXPECT_EQ(checker.equivocations_seen(), 1);
  EXPECT_EQ(checker.invalid_arq_frames_seen(), 2);
  ASSERT_EQ(checker.violations().size(), 1u);
  const std::string& v = checker.violations().front();
  EXPECT_NE(v.find("channel 1 delivered 1 invalid ARQ frame(s)"),
            std::string::npos)
      << v;
}

}  // namespace
}  // namespace csca
