// The repository benchmark: one command, three workloads (storm,
// protocols, faults) over the four engines. See ../README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--report PATH] [--inject ledger|digest] [--list-metrics]
//
// Prints every metric of the selected mode as "name value unit", then,
// as the last line, one JSON object {correct, attempted, failed,
// metrics}. Exits 1 when any correctness check failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "storm|protocols|faults --seed N --seconds S --trace 0|1 "
               "[--report PATH] [--inject ledger|digest] [--list-metrics]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Report& report,
                         const std::vector<MetricSpec>& names) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSpec& m : names) {
    const auto it = report.metrics().find(m.name);
    const double v = it == report.metrics().end() ? 0 : it->second.value;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(v) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricSpec& m : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const MetricSpec& m : per_layer_metrics()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atoi(val.c_str());
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      opts.trace = val == "1";
      have_trace = true;
    } else if (arg == "--report") {
      opts.report_path = val;
    } else if (arg == "--inject") {
      if (val != "ledger" && val != "digest") {
        return usage("--inject takes ledger or digest");
      }
      opts.inject = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.workload.empty() || !have_trace) {
    return usage("--workload and --trace are required");
  }
  if (opts.seconds < 1) return usage("--seconds must be >= 1");
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && hw < static_cast<unsigned>(kThreads)) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: shard4 and tw4 need %d "
                 "threads, this machine has %u hardware threads\n",
                 kThreads, hw);
    return 2;
  }

  Gate gate(opts.inject);
  Report report;
  try {
    if (opts.workload == "storm") {
      run_storm(opts, gate, report);
    } else if (opts.workload == "protocols") {
      run_protocols(opts, gate, report);
    } else if (opts.workload == "faults") {
      run_faults(opts, gate, report);
    } else {
      return usage(("unknown workload " + opts.workload).c_str());
    }
  } catch (const std::exception& e) {
    gate.attempt();
    gate.fail(std::string("uncaught exception: ") + e.what());
  }
  report_threads(report);

  const std::vector<MetricSpec>& names =
      opts.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& m : names) {
    // A per-layer metric the workload does not exercise reads 0.
    const auto it = report.metrics().find(m.name);
    if (it == report.metrics().end() && !opts.trace) {
      gate.fail("metric not measured: " + m.name);
    }
    const double v = it == report.metrics().end() ? 0 : it->second.value;
    std::printf("%-44s %-14.6g %s\n", m.name.c_str(), v, m.unit.c_str());
  }
  const bool correct = gate.failed() == 0;
  const std::int64_t attempted = std::max<std::int64_t>(1, gate.attempted());

  if (!opts.report_path.empty()) {
    std::ofstream out(opts.report_path);
    out << "{\n  \"workload\": \"" << json_escape(opts.workload)
        << "\",\n  \"seed\": " << opts.seed
        << ",\n  \"seconds\": " << opts.seconds
        << ",\n  \"trace\": " << (opts.trace ? 1 : 0)
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"attempted\": " << attempted
        << ",\n  \"failed\": " << gate.failed();
    for (const auto& [name, value] : report.facts()) {
      out << ",\n  \"" << json_escape(name) << "\": " << value;
    }
    out << ",\n  \"metrics\": " << metrics_json(report, names) << "\n}\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opts.report_path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(gate.failed()),
              metrics_json(report, names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
