#include "sim/event_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "util/rng.h"

namespace csca {
namespace {

// Mirror of HeapKey the reference std::priority_queue can order.
using RefKey = std::pair<double, std::uint32_t>;

struct Item {
  int tag = 0;
};

TEST(EventHeap, PopsInKeyOrderWithDeterministicTieBreaks) {
  EventHeap<Item> heap;
  Rng rng(11);
  std::vector<RefKey> reference;
  for (std::uint32_t s = 0; s < 500; ++s) {
    // Coarse keys force many ties; aux must decide them FIFO.
    const RefKey k{static_cast<double>(rng.uniform_int(0, 9)), s};
    reference.push_back(k);
    heap.push(HeapKey{k.first, k.second}, Item{static_cast<int>(s)});
  }
  std::sort(reference.begin(), reference.end());
  for (const RefKey& want : reference) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top_key(), (HeapKey{want.first, want.second}));
    const Item got = heap.pop();
    EXPECT_EQ(got.tag, static_cast<int>(want.second));
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, MatchesPriorityQueueUnderInterleavedPushPop) {
  EventHeap<Item> heap;
  std::priority_queue<RefKey, std::vector<RefKey>, std::greater<>> ref;
  Rng rng(17);
  std::uint32_t seq = 0;
  for (int round = 0; round < 2000; ++round) {
    if (ref.empty() || rng.uniform_int(0, 2) != 0) {
      const RefKey k{rng.uniform_real(0.0, 100.0), seq++};
      ref.push(k);
      heap.push(HeapKey{k.first, k.second}, Item{static_cast<int>(k.second)});
    } else {
      const RefKey want = ref.top();
      ref.pop();
      ASSERT_EQ(heap.top_key(), (HeapKey{want.first, want.second}));
      ASSERT_EQ(heap.pop().tag, static_cast<int>(want.second));
    }
    ASSERT_EQ(heap.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.pop().tag, static_cast<int>(ref.top().second));
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, MoveOnlyEventsAreMovedNotCopied) {
  struct MoveOnly {
    std::unique_ptr<int> box;
  };
  EventHeap<MoveOnly> heap;
  for (int i = 9; i >= 0; --i) {
    heap.push(HeapKey{static_cast<double>(i), static_cast<std::uint32_t>(i)},
              MoveOnly{std::make_unique<int>(i)});
  }
  for (int i = 0; i < 10; ++i) {
    MoveOnly got = heap.pop();
    ASSERT_NE(got.box, nullptr);
    EXPECT_EQ(*got.box, i);
  }
}

TEST(EventHeap, ArenaSlotsAreRecycledAcrossDrains) {
  EventHeap<Item> heap;
  std::uint32_t seq = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      heap.push(HeapKey{static_cast<double>(i), seq++}, Item{i});
    }
    while (!heap.empty()) heap.pop();
  }
  // 8 concurrent events ever; 50 drains reuse the same 8 slots.
  EXPECT_EQ(heap.arena_slots(), 8u);
  EXPECT_EQ(heap.peak_size(), 8u);
}

TEST(EventHeap, PeakSizeTracksHighWaterMark) {
  EventHeap<Item> heap;
  for (std::uint32_t s = 0; s < 5; ++s) heap.push(HeapKey{1.0, s}, Item{0});
  heap.pop();
  heap.pop();
  for (std::uint32_t s = 5; s < 7; ++s) heap.push(HeapKey{1.0, s}, Item{0});
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap.peak_size(), 5u);
  EXPECT_THROW(EventHeap<Item>{}.top(), PreconditionError);
  EXPECT_THROW(EventHeap<Item>{}.top_key(), PreconditionError);
  EXPECT_THROW(EventHeap<Item>{}.pop(), PreconditionError);
}

// A +inf or NaN time never falls below a horizon, so a sweep could not
// move it; such keys are refused at push (e.g. a self-delivery scheduled
// with an infinite delay).
TEST(EventHeap, RejectsTimesNoHorizonCanReach) {
  EventHeap<Item> heap;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(heap.push(HeapKey{inf, 0}, Item{}), PreconditionError);
  EXPECT_THROW(heap.push(HeapKey{std::nan(""), 1}, Item{}),
               PreconditionError);
  heap.push(HeapKey{-inf, 2}, Item{2});
  EXPECT_EQ(heap.pop().tag, 2);
  EXPECT_TRUE(heap.empty());
}

// Ties at one time cannot be split by any horizon width. Halving the
// width on such slices once collapsed the horizon onto the earliest
// staged time after ~48 sweeps: the sweep moved nothing, and pop 120,000
// returned t = 1.6e-319 after t = 48 (read from an empty run tier).
TEST(EventHeap, SingleTimeSlicesNeverCollapseTheHorizon) {
  EventHeap<Item> heap;
  std::uint32_t seq = 0;
  for (int i = 0; i < 2500; ++i) heap.push(HeapKey{1.0, seq++}, Item{i});
  double last = 1.0;
  std::uint64_t pops = 0;
  while (!heap.empty()) {
    const HeapKey k = heap.top_key();
    ASSERT_GE(k.t, last) << "pop " << pops;
    ASSERT_EQ(k.t, static_cast<double>(static_cast<int>(k.t)))
        << "pop " << pops;
    heap.pop();
    ++pops;
    if (k.t < 100) heap.push(HeapKey{k.t + 1, seq++}, Item{});
    last = k.t;
  }
  EXPECT_EQ(pops, 250000u);
  EXPECT_EQ(heap.counters().sweeps, 100u);
}

// Delay of the event each pop pushes, after the popped event's time.
using LeadFn = double (*)(Rng&);

struct StreamWork {
  std::uint64_t pops = 0;
  QueueCounters counters;
};

constexpr std::uint32_t kBurstTag = 1;

// Replays a storm-like stream through EventHeap and std::priority_queue
// and checks every pop against the reference. 100 events start at
// lead(rng); each of the next 3 * 10^5 pops pushes events lead(rng)
// after itself — four while fewer than 10^5 are pending (the ramp), one
// after that — and every burst_every-th of them (if nonzero) also
// pushes 5,000 zero-lead events, which push nothing when they leave.
// Then both drain.
void replay_against_reference(LeadFn lead, int burst_every,
                              StreamWork& work) {
  EventHeap<Item> heap;
  std::priority_queue<RefKey, std::vector<RefKey>, std::greater<>> ref;
  std::vector<std::uint32_t> tags;
  Rng rng(29);
  const auto push = [&](double t, std::uint32_t tag) {
    const auto seq = static_cast<std::uint32_t>(tags.size());
    tags.push_back(tag);
    ref.push(RefKey{t, seq});
    heap.push(HeapKey{t, seq}, Item{static_cast<int>(seq)});
  };
  for (int i = 0; i < 100; ++i) push(lead(rng), 0);
  for (int step = 1; !ref.empty(); ++step) {
    const RefKey want = ref.top();
    ref.pop();
    ASSERT_EQ(heap.top_key(), (HeapKey{want.first, want.second}))
        << "pop " << work.pops;
    ASSERT_EQ(heap.pop().tag, static_cast<int>(want.second));
    ++work.pops;
    if (step > 300000 || tags[want.second] == kBurstTag) continue;
    push(want.first + lead(rng), 0);
    for (int i = 0; i < 3 && ref.size() < 100000; ++i) {
      push(want.first + lead(rng), 0);
    }
    if (burst_every != 0 && step % burst_every == 0) {
      for (int i = 0; i < 5000; ++i) push(want.first, kBurstTag);
    }
  }
  ASSERT_TRUE(heap.empty());
  work.counters = heap.counters();
}

double continuous_lead(Rng& rng) { return rng.uniform_real(0.0, 10.0); }
double half_zero_lead(Rng& rng) {
  return rng.uniform_int(0, 1) == 0 ? 0.0 : rng.uniform_real(0.0, 10.0);
}
double two_point_lead(Rng& rng) {
  return rng.uniform_int(0, 1) == 0 ? 0.001 : 1.0;
}
double integer_lead(Rng& rng) {
  return static_cast<double>(rng.uniform_int(1, 4));
}

struct LeadPattern {
  const char* name;
  LeadFn lead;
  int burst_every;
};

// The pop order matches the reference on five lead patterns, and the
// queue's work stays bounded: staged entries scanned per pop (a horizon
// that halves too eagerly rescans the far tier over and over; here
// 2.1-4.8) and the young heap's peak size (a horizon left wide by the
// ramp sifts every near-future push through a heap of up to 10^5
// entries; here 6.7k-21.4k). The bounds are on deterministic counts,
// not timings.
TEST(EventHeap, MatchesPriorityQueueWithBoundedWorkOnLeadPatterns) {
  const LeadPattern patterns[] = {
      {"continuous", continuous_lead, 0},
      {"half-zero", half_zero_lead, 0},
      {"two-point", two_point_lead, 0},
      {"integer", integer_lead, 0},
      {"bursts", continuous_lead, 20000},
  };
  for (const LeadPattern& p : patterns) {
    SCOPED_TRACE(p.name);
    StreamWork work;
    replay_against_reference(p.lead, p.burst_every, work);
    if (HasFatalFailure()) return;
    const QueueCounters& c = work.counters;
    const double scanned_per_pop =
        static_cast<double>(c.scanned) / static_cast<double>(work.pops);
    EXPECT_LE(scanned_per_pop, 6.0);
    EXPECT_LE(c.peak_young, 24576u);
  }
}


// A long stretch with a one-event queue (a ping-pong: each pop pushes
// the next event 1 later) sweeps once per pop, and every such sweep
// empties the far tier. Widening the horizon there grew the width
// without bound, so the 10^5-event wave that follows landed entirely
// in the young heap: 357k young pushes and a 50,001-entry peak young
// heap before the fix. The wave must be partitioned as a fresh one is,
// within the bounds the lead-pattern test above holds (measured: 21.8k
// young pushes, peak 4,097, 5.3 scanned per pop).
TEST(EventHeap, WidthStaysFiniteAfterIdleStretch) {
  EventHeap<Item> heap;
  Rng rng(29);
  std::uint32_t seq = 0;
  double t = 0;
  heap.push(HeapKey{0.0, seq++}, Item{});
  for (int i = 0; i < 3000; ++i) {
    t = heap.top_key().t;
    heap.pop();
    heap.push(HeapKey{t + 1.0, seq++}, Item{});
  }
  const QueueCounters before = heap.counters();
  for (int i = 0; i < 100000; ++i) {
    heap.push(HeapKey{t + rng.uniform_real(0.0, 10.0), seq++}, Item{});
  }
  // Each of the next 3 * 10^5 pops pushes one event, then the queue
  // drains.
  std::uint64_t pops = 0;
  double last = 0;
  while (!heap.empty()) {
    const double now = heap.top_key().t;
    ASSERT_GE(now, last);
    last = now;
    heap.pop();
    if (++pops < 300000) {
      heap.push(HeapKey{now + rng.uniform_real(0.0, 10.0), seq++}, Item{});
    }
  }
  const QueueCounters& c = heap.counters();
  EXPECT_LE(c.young_pushes - before.young_pushes, 100000u);
  EXPECT_LE(c.peak_young, 24576u);
  EXPECT_LE(static_cast<double>(c.scanned - before.scanned) /
                static_cast<double>(pops),
            6.0);
}

}  // namespace
}  // namespace csca
