// The event queue behind both simulation engines.
//
// A tiered timer queue around a shared arena of pooled event nodes. All
// tiers hold compact 16-byte entries — (time, aux, slot) where slot is
// a 32-bit index into the arena — so ordering work never touches the
// events themselves, and pop() moves the event *out* of its slot (no
// copy); freed slots go on a free list, so in steady state a run
// allocates nothing per event.
//
//   * run tier — entries below the current time horizon, sorted
//     descending once per sweep; pop is a compare plus pop_back, no
//     per-pop sifting, and consecutive pops walk the same cache lines.
//     Pops prefetch the arena slot kPrefetchAhead entries down the run.
//   * young tier — a 4-ary indexed min-heap catching events pushed
//     *after* the sweep but scheduled before the horizon (e.g.
//     zero-delay self-deliveries, or pulse+1 sends in the synchronous
//     engine). Its size is bounded: once it outgrows both kYoungFloor
//     and the remaining run slice, it merges into the run and the
//     horizon narrows, sending what lies past it back to the far tier
//     (a *rehorizon*), so its sifts stay in L1/L2.
//   * far tier — an unsorted staging vector for events at or beyond
//     the horizon; pushing there is a plain append. When run and young
//     drain, one sweep partitions the staging vector against a new
//     horizon and sorts the slice below it into the run tier.
//
// The tiers are what make deep queues fast: a flood workload keeps
// 10^5+ events pending, but ordering work only ever happens on the
// slice inside the horizon (one streaming sort per sweep) instead of on
// a multi-MB heap with a dependent cache-miss chain per pop. The
// horizon width self-tunes (doubling/halving against a target slice
// size, halving again on a rehorizon), which affects only *when*
// entries migrate between tiers — never the order they leave in. The
// horizon never collapses onto the earliest staged time: a sweep always
// moves at least the entries at that time, and a slice whose entries
// all share one time (which no width can split) never halves it.
//
// Ordering: entries leave in ascending (t, aux) order. t is the
// scheduled time; aux is a 32-bit tie-break the engines derive from a
// per-run sequence number (and, for the synchronous engine, an event
// kind bit), making the order total. The tiers partition strictly by
// time (run/young < horizon <= far), so min(run.back, young.top) is the
// global minimum and pop order equals that of any correct priority
// queue over the full key — run ledgers stay bit-identical across
// queue implementations (the golden-ledger test).
//
// All tiers and the arena persist across run() calls of the owning
// engine, so resumed / repeated runs reuse the same storage.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/require.h"

namespace csca {

/// Scheduling key: time plus a 32-bit tie-break, ordered
/// lexicographically. Engines must keep (t, aux) unique per pending
/// event so the pop order is total.
struct HeapKey {
  double t;
  std::uint32_t aux;

  friend bool operator<(const HeapKey& a, const HeapKey& b) {
    return a.t < b.t || (a.t == b.t && a.aux < b.aux);
  }
  friend bool operator==(const HeapKey& a, const HeapKey& b) {
    return a.t == b.t && a.aux == b.aux;
  }
};

/// Deterministic work counters of one EventHeap. They depend only on
/// the sequence of pushes and pops, never on timing, so tests can pin
/// bounds on them (see docs/model.md, "Engine internals").
struct QueueCounters {
  std::uint64_t sweeps = 0;        // refills of the run from the far tier
  std::uint64_t scanned = 0;       // entries sweeps + rehorizons partitioned
  std::uint64_t young_pushes = 0;  // pushes that landed in the young heap
  std::uint64_t rehorizons = 0;    // young-heap overflows (see rehorizon())
  std::size_t peak_young = 0;      // largest young heap seen
};

template <typename Event>
class EventHeap {
 public:
  bool empty() const {
    return run_.empty() && young_.empty() && far_.empty();
  }
  std::size_t size() const {
    return run_.size() + young_.size() + far_.size();
  }

  /// High-water mark of size() over the heap's lifetime (peak number of
  /// simultaneously pending events; benches report it per workload).
  std::size_t peak_size() const { return peak_; }

  /// Number of arena slots ever allocated == peak concurrent events,
  /// since popped slots are recycled.
  std::size_t arena_slots() const { return arena_.size(); }

  const QueueCounters& counters() const { return counters_; }

  void reserve(std::size_t n) {
    arena_.reserve(n);
    far_.reserve(n);
    free_.reserve(n);
  }

  /// Key of the earliest event. May migrate far-tier entries into the
  /// run tier first (hence non-const); the result is unaffected.
  HeapKey top_key() {
    const Entry& e = top_entry();
    return HeapKey{e.t, e.aux};
  }

  const Event& top() { return arena_[top_entry().slot]; }

  void push(HeapKey key, Event&& ev) {
    // A +inf (or NaN) time could never fall below any horizon.
    require(key.t < kInf, "EventHeap key time must be below +infinity");
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      arena_[slot] = std::move(ev);
    } else {
      require(arena_.size() < UINT32_MAX, "EventHeap arena full");
      slot = static_cast<std::uint32_t>(arena_.size());
      arena_.push_back(std::move(ev));
    }
    if (key.t < horizon_) {
      young_.push_back(Entry{key.t, key.aux, slot});
      sift_up(young_.size() - 1);
      ++counters_.young_pushes;
      counters_.peak_young = std::max(counters_.peak_young, young_.size());
      if (young_.size() > std::max(kYoungFloor, run_.size())) rehorizon();
    } else {
      far_min_ = std::min(far_min_, key.t);
      far_.push_back(Entry{key.t, key.aux, slot});
    }
    peak_ = std::max(peak_, size());
  }

  /// Removes and returns the earliest event. The event is moved out of
  /// its arena slot and the slot is recycled.
  Event pop() {
    const bool from_young = top_is_young();
    const std::uint32_t slot =
        from_young ? young_.front().slot : run_.back().slot;
    Event out = std::move(arena_[slot]);
    free_.push_back(slot);
    if (from_young) {
      Entry last = young_.back();
      young_.pop_back();
      if (!young_.empty()) {
        young_[0] = last;
        sift_down(0);
      }
    } else {
      run_.pop_back();
    }
    // Upcoming pops' arena slots are already known; start pulling them
    // into cache while the caller processes the current event: run
    // entries kPrefetchAhead pops early, the young top one pop early.
    if (run_.size() > kPrefetchAhead) {
      prefetch_slot(run_[run_.size() - 1 - kPrefetchAhead].slot);
    }
    if (!young_.empty()) prefetch_slot(young_.front().slot);
    return out;
  }

 private:
  struct Entry {
    double t;
    std::uint32_t aux;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) == 16, "heap entries should stay compact");

  // The young heap may always grow to kYoungFloor entries (or to the
  // size of the remaining run slice, whichever is larger) before it
  // triggers a rehorizon.
  static constexpr std::size_t kYoungFloor = 4096;
  static constexpr std::size_t kPrefetchAhead = 8;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  static bool less(const Entry& a, const Entry& b) {
    return a.t < b.t || (a.t == b.t && a.aux < b.aux);
  }

  void prefetch_slot(std::uint32_t slot) const {
    const char* p = reinterpret_cast<const char*>(&arena_[slot]);
    __builtin_prefetch(p);
    if (sizeof(Event) > 64) __builtin_prefetch(p + 64);
  }

  /// True if the global minimum sits in the young heap rather than at
  /// the back of the run; refills the run from the far tier when both
  /// ordered tiers are empty. Keys are never equal across tiers (the
  /// aux component is unique), so strict < decides exactly.
  bool top_is_young() {
    require(!empty(), "EventHeap::top/pop on empty heap");
    if (run_.empty() && young_.empty()) sweep();
    if (young_.empty()) return false;
    if (run_.empty()) return true;
    return less(young_.front(), run_.back());
  }

  Entry& top_entry() {
    return top_is_young() ? young_.front() : run_.back();
  }

  /// Refills the empty run tier from the far tier: picks a new horizon
  /// just past the earliest staged event, moves every entry below it
  /// into the run and sorts that slice descending (so pops come off the
  /// back in key order). The horizon width adapts toward a slice of
  /// ~1/8 of the pending entries, capped so the slice stays a few
  /// hundred KB — small enough to sort in cache, large enough to
  /// amortize the O(far) partition scan. A slice at a single time is as
  /// narrow as a slice gets, so it never halves the width. A sweep that
  /// emptied the far tier never doubles it: a wider horizon would have
  /// moved nothing more, and a near-empty queue, which sweeps on every
  /// pop, would double it without bound.
  void sweep() {
    // far_min_ is maintained incrementally by push(), so one partition
    // pass suffices; it recomputes the min of what it keeps (and the
    // min of what it moves, which seeds the bucket sort).
    horizon_ = horizon_after(far_min_);
    far_min_ = kInf;
    double run_min = kInf;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < far_.size(); ++i) {
      const Entry e = far_[i];
      if (e.t < horizon_) {
        run_min = std::min(run_min, e.t);
        run_.push_back(e);
      } else {
        far_min_ = std::min(far_min_, e.t);
        far_[kept] = e;
        ++kept;
      }
    }
    ++counters_.sweeps;
    counters_.scanned += far_.size();
    far_.resize(kept);
    sort_run_descending(run_min);
    const std::size_t target = std::clamp<std::size_t>(
        (run_.size() + far_.size()) / 8, 1024, 32768);
    if (run_.size() > 2 * target) {
      if (run_.front().t != run_.back().t) width_ *= 0.5;
    } else if (run_.size() < target / 2 && !far_.empty()) {
      width_ *= 2.0;
    }
  }

  /// Answers a young-heap overflow: merges the young heap into the run,
  /// halves the width, lowers the horizon to match and re-sorts the run
  /// below it. Entries at or past the new horizon go back to the far
  /// tier, which needs no rescan: everything there already lies past the
  /// old horizon. The young heap restarts empty, and pushes beyond the
  /// narrower horizon become plain appends again. Pushes at the earliest
  /// pending time (a zero-delay burst) fit under any horizon, so a young
  /// heap that mostly holds those only merges and keeps the width.
  void rehorizon() {
    ++counters_.rehorizons;
    const double lo = run_.empty()
                          ? young_.front().t
                          : std::min(run_.back().t, young_.front().t);
    std::size_t at_lo = 0;
    for (const Entry& e : young_) {
      at_lo += e.t == lo ? 1 : 0;
      run_.push_back(e);
    }
    if (2 * at_lo < young_.size()) width_ *= 0.5;
    young_.clear();
    horizon_ = std::min(horizon_, horizon_after(lo));
    std::size_t kept = 0;
    for (std::size_t i = 0; i < run_.size(); ++i) {
      const Entry e = run_[i];
      if (e.t < horizon_) {
        run_[kept] = e;
        ++kept;
      } else {
        far_min_ = std::min(far_min_, e.t);
        far_.push_back(e);
      }
    }
    counters_.scanned += run_.size();
    run_.resize(kept);
    sort_run_descending(lo);
  }

  /// The horizon for a slice starting at time lo: one width past it, but
  /// never less than the next representable time, so the entries at lo
  /// always fall below it however small the width has become.
  double horizon_after(double lo) const {
    return std::max(lo + width_, std::nextafter(lo, kInf));
  }

  /// Sorts the freshly refilled run slice descending. Large slices are
  /// first scattered into time-range buckets — the bucket index is a
  /// monotone function of t, so bucket order is consistent with key
  /// order and the comparison sort only ever runs inside small buckets.
  /// The result is the exact (t, aux) order a full sort would produce;
  /// bucketing merely replaces most of its compares with two linear
  /// passes.
  void sort_run_descending(double run_min) {
    const std::size_t n = run_.size();
    const std::size_t buckets = std::min<std::size_t>(n / 8, 1u << 16);
    const double scale =
        static_cast<double>(buckets) / (horizon_ - run_min);
    // A subnormal span (a slice at one time near 0) overflows the scale.
    if (n < 4096 || !(scale > 0 && scale < kInf)) {
      sort_descending(run_.begin(), run_.end());
      return;
    }
    // Bucket 0 holds the latest times so the slice comes out
    // back-to-front ready (pops come off the back).
    const auto bucket_of = [&](double t) {
      const auto b = static_cast<std::size_t>((t - run_min) * scale);
      return buckets - 1 - std::min(b, buckets - 1);
    };
    counts_.assign(buckets + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts_[bucket_of(run_[i].t) + 1];
    }
    for (std::size_t b = 1; b <= buckets; ++b) counts_[b] += counts_[b - 1];
    scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scratch_[counts_[bucket_of(run_[i].t)]++] = run_[i];
    }
    run_.swap(scratch_);
    // counts_[b] now marks the end of bucket b; sort each bucket.
    std::size_t begin = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t end = counts_[b];
      if (end - begin > 1) {
        sort_descending(run_.begin() + static_cast<std::ptrdiff_t>(begin),
                        run_.begin() + static_cast<std::ptrdiff_t>(end));
      }
      begin = end;
    }
  }

  /// Sorts [first, last) descending. A range that is already ascending
  /// is only reversed: the partition keeps staged entries in push order,
  /// so a slice at one time (a pulse of the synchronous engine, unless
  /// it holds wakeups) arrives ascending in its sequence tie-break.
  static void sort_descending(typename std::vector<Entry>::iterator first,
                              typename std::vector<Entry>::iterator last) {
    if (std::is_sorted(first, last, less)) {
      std::reverse(first, last);
    } else {
      std::sort(first, last,
                [](const Entry& a, const Entry& b) { return less(b, a); });
    }
  }

  // Children of young-heap position i live at 4i+1 .. 4i+4.
  void sift_up(std::size_t i) {
    const Entry moving = young_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less(moving, young_[parent])) break;
      young_[i] = young_[parent];
      i = parent;
    }
    young_[i] = moving;
  }

  void sift_down(std::size_t i) {
    const Entry moving = young_[i];
    const std::size_t n = young_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less(young_[c], young_[best])) best = c;
      }
      if (!less(young_[best], moving)) break;
      young_[i] = young_[best];
      i = best;
    }
    young_[i] = moving;
  }

  std::vector<Event> arena_;         // pooled event nodes (all tiers)
  std::vector<std::uint32_t> free_;  // recycled arena slots
  std::vector<Entry> run_;           // below horizon, sorted descending
  std::vector<Entry> young_;         // below horizon, pushed post-sweep
  std::vector<Entry> far_;           // at/beyond horizon, unsorted
  // Events with time < horizon_ go to run/young; the rest are staged.
  // Starts at -inf so the first sweep sets it from real data.
  double horizon_ = -kInf;
  // Min time in far_, maintained by push(), sweep() and rehorizon().
  double far_min_ = kInf;
  double width_ = 1.0;  // adaptive horizon advance per sweep
  std::vector<Entry> scratch_;        // bucket-sort scatter buffer
  std::vector<std::size_t> counts_;   // bucket-sort offsets
  std::size_t peak_ = 0;
  QueueCounters counters_;
};

}  // namespace csca
