#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

// splitmix64: a fixed stream, so every sample does the same work.
std::uint64_t next(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

double HostSpeed::calibrate() {
  const auto t0 = Clock::now();
  std::uint64_t s = 2026;
  // A small event loop of the simulator's kind, written here so that it
  // never changes with the program: a binary heap of timed events over
  // a random 4-regular graph, a hash map touched per event, and a short
  // allocation per event.
  constexpr int kNodes = 1 << 14;
  constexpr int kEvents = 1 << 17;
  std::vector<int> adj(4 * kNodes);
  for (int& v : adj) v = static_cast<int>(next(s) % kNodes);
  using Event = std::pair<double, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<int, std::int64_t> seen;
  for (int i = 0; i < 64; ++i) {
    queue.emplace(0.0, static_cast<int>(next(s) % kNodes));
  }
  std::int64_t sum = 0;
  for (int done = 0; done < kEvents && !queue.empty(); ++done) {
    const auto [t, v] = queue.top();
    queue.pop();
    std::vector<std::int64_t> payload(4 + (v & 7), v);
    sum += ++seen[v] + payload.back();
    for (int k = 0; k < 2; ++k) {
      const int to = adj[4 * v + static_cast<int>(next(s) % 4)];
      queue.emplace(t + 0.1 + 0.8 * static_cast<double>(next(s) >> 11) *
                                     0x1.0p-53,
                    to);
    }
  }
  sink_ = sum;  // a volatile store: the loop cannot be optimised away
  return seconds_since(t0);
}

void HostSpeed::normalize(Report& report) const {
  const double cal_s = median(samples_);
  report.metric("host.calibration_ms", 1e3 * cal_s, "ms");
  report.fact("calibration_samples", std::to_string(samples_.size()));
  const double slow = cal_s / kNominalS;  // > 1: slower than nominal
  const std::map<std::string, MetricValue> measured = report.metrics();
  const auto rescale = [&](const std::string& name, double factor) {
    const auto it = measured.find(name);
    if (it == measured.end()) return;
    char raw[64];
    std::snprintf(raw, sizeof raw, "%.17g", it->second.value);
    report.fact("raw." + name, raw);
    report.metric(name, it->second.value * factor, it->second.unit);
  };
  for (const char* time : {"setup_s", "run_ms_p50", "run_ms_p90", "tables_s"}) {
    rescale(time, 1 / slow);
  }
  for (const char* rate : {"seq_events_per_s", "sync_events_per_s"}) {
    rescale(rate, slow);
  }
}

}  // namespace perfbench
