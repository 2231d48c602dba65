// Heap-allocation regression test for the hot paths.
//
// This binary replaces the global operator new/delete with counting
// versions, so it links alone (tests/CMakeLists.txt gives it its own
// executable). It pins two properties:
//   * a passing require()/ensure() never allocates, however long its
//     message literal (util/require.h takes a std::string_view);
//   * a keyed Network storm and a SyncEngine storm with inline payloads
//     (<= Message::kInlineCapacity words), no observer and no faults
//     allocate nothing per delivered event: over a run of 10^5+ events
//     the total is bounded by a constant for queue-arena regrowth, not
//     by the event count.
//
// Counts are read into locals before any gtest assertion runs, so the
// framework's own allocations never land inside a measured window.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "sim/delay.h"
#include "sim/network.h"
#include "sim/sync_engine.h"
#include "util/require.h"
#include "util/rng.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size == 0 ? a : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace csca {
namespace {

std::int64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Allocations allowed over a whole storm run: the queue arena, its
// tiers and the engine's per-run vectors each double O(log peak) times
// (about 50 in all for the 1.7 * 10^5-event storm below, about 40 for
// the same storm at TTL 6). A per-event allocation would scale with the
// event count instead: the std::string-taking checks made about ten per
// event here.
constexpr std::int64_t kRegrowthBound = 128;
constexpr std::int64_t kMinEvents = 100'000;

// Held at namespace scope so the optimizer cannot elide the allocation.
std::unique_ptr<std::vector<int>> g_kept;

TEST(Alloc, CounterSeesHeapAllocations) {
  const std::int64_t before = allocations();
  g_kept = std::make_unique<std::vector<int>>(100);
  const std::int64_t made = allocations() - before;
  EXPECT_EQ(made, 2);  // the vector object and its buffer
  g_kept.reset();
}

TEST(Alloc, PassingChecksDoNotAllocate) {
  const std::int64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    require(i >= 0,
            "a precondition message well past the small-string buffer");
    ensure(i < 1000,
           "an invariant message that is also longer than forty chars");
  }
  const std::int64_t made = allocations() - before;
  EXPECT_EQ(made, 0);
}

// Every source floods its incident edges with a TTL; every receiver
// re-floods with TTL - 1 until it reaches zero. Payloads are two words,
// so they live inline in the Message.
constexpr std::int64_t kTtl = 7;

struct Storm {
  Graph graph{0};
  std::vector<char> sources;
};

Storm make_storm() {
  Rng rng(5);
  Storm s;
  s.graph = grid_graph(32, 32, WeightSpec::uniform(1, 4), rng);
  s.sources.assign(static_cast<std::size_t>(s.graph.node_count()), 0);
  s.sources[8 * 32 + 8] = 1;
  s.sources[24 * 32 + 20] = 1;
  return s;
}

class StormProcess final : public Process {
 public:
  explicit StormProcess(bool source) : source_(source) {}
  void on_start(Context& ctx) override {
    if (!source_) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {kTtl, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, ctx.self()}}, MsgClass::kAlgorithm);
    }
  }

 private:
  bool source_;
};

class SyncStormProcess final : public SyncProcess {
 public:
  explicit SyncStormProcess(bool source) : source_(source) {}
  void on_start(SyncContext& ctx) override {
    if (!source_) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {kTtl, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(SyncContext& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, ctx.self()}}, MsgClass::kAlgorithm);
    }
  }

 private:
  bool source_;
};

TEST(Alloc, KeyedNetworkStormAllocatesNothingPerEvent) {
  const Storm s = make_storm();
  Network net(
      s.graph,
      [&s](NodeId v) {
        return std::make_unique<StormProcess>(
            s.sources[static_cast<std::size_t>(v)] != 0);
      },
      make_uniform_delay(0.1, 0.9), 3);
  net.set_keyed_delays(true);
  const std::int64_t before = allocations();
  const RunStats stats = net.run();
  const std::int64_t made = allocations() - before;
  EXPECT_GE(stats.events, kMinEvents);
  EXPECT_LE(made, kRegrowthBound) << "over " << stats.events << " events";
}

TEST(Alloc, SyncEngineStormAllocatesNothingPerEvent) {
  const Storm s = make_storm();
  SyncEngine eng(s.graph, [&s](NodeId v) {
    return std::make_unique<SyncStormProcess>(
        s.sources[static_cast<std::size_t>(v)] != 0);
  });
  const std::int64_t before = allocations();
  const RunStats stats = eng.run();
  const std::int64_t made = allocations() - before;
  EXPECT_GE(stats.events, kMinEvents);
  EXPECT_LE(made, kRegrowthBound) << "over " << stats.events << " events";
}

}  // namespace
}  // namespace csca
