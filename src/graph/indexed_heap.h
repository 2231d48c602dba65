// Indexed 4-ary min-heap over node ids: the one priority queue behind
// every graph-layer search (graph/shortest_paths.h's kernel, the §1.3
// sweep in graph/measures.cpp and the shard grower in par/partition.cpp).
//
// A node holds at most one slot, keyed (priority, node id): ties pop the
// smaller id, as in the lazy-deletion heaps this replaced, so searches
// settle nodes in the same order. A queued node's priority moves in
// place instead of leaving a stale entry, so the heap never exceeds n
// entries, and reset() keeps its storage for the next pass.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace csca {

class IndexedHeap {
 public:
  struct Entry {
    Weight priority;
    NodeId node;
  };

  /// Empties the heap and sizes it for nodes [0, n). O(size + growth):
  /// an unqueued node's slot is always empty.
  void reset(int n) {
    clear();
    pos_.resize(static_cast<std::size_t>(n), kAbsent);
  }

  /// Drops every queued node. O(size).
  void clear() {
    for (const Entry& e : heap_) {
      pos_[static_cast<std::size_t>(e.node)] = kAbsent;
    }
    heap_.clear();
  }

  bool empty() const { return heap_.empty(); }

  /// v's priority if queued, else `absent`.
  Weight priority_or(NodeId v, Weight absent) const {
    const int slot = pos_[static_cast<std::size_t>(v)];
    return slot == kAbsent ? absent
                           : heap_[static_cast<std::size_t>(slot)].priority;
  }

  /// Queues v at priority p, or moves a queued v to p.
  void push(NodeId v, Weight p) {
    const int slot = pos_[static_cast<std::size_t>(v)];
    if (slot == kAbsent) {
      heap_.push_back({p, v});
      sift_up(heap_.size() - 1);
      return;
    }
    const auto i = static_cast<std::size_t>(slot);
    const bool up = p < heap_[i].priority;
    heap_[i].priority = p;
    if (up) {
      sift_up(i);
    } else {
      sift_down(i);
    }
  }

  /// Removes and returns the smallest (priority, node). Requires !empty().
  Entry pop() {
    const Entry top = heap_.front();
    pos_[static_cast<std::size_t>(top.node)] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return top;
  }

 private:
  static constexpr int kAbsent = -1;
  static constexpr std::size_t kArity = 4;

  static bool before(const Entry& a, const Entry& b) {
    return a.priority != b.priority ? a.priority < b.priority
                                    : a.node < b.node;
  }

  // Writes e at slot i and records the slot.
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[static_cast<std::size_t>(e.node)] = static_cast<int>(i);
  }

  void sift_up(std::size_t i) {
    const Entry e = heap_[i];
    while (i > 0 && before(e, heap_[(i - 1) / kArity])) {
      place(i, heap_[(i - 1) / kArity]);
      i = (i - 1) / kArity;
    }
    place(i, e);
  }

  void sift_down(std::size_t i) {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (std::size_t first = i * kArity + 1; first < n;
         first = i * kArity + 1) {
      std::size_t best = first;
      for (std::size_t c = first + 1; c < first + kArity && c < n; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, e);
  }

  std::vector<Entry> heap_;
  std::vector<int> pos_;  // node -> index into heap_, kAbsent if unqueued
};

}  // namespace csca
