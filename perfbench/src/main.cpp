// perfbench_runner — runs one round of one benchmark workload in this
// process and prints its host-clock timings, checks and run record.
//
//   perfbench_runner --workload rw-mltree --seed 1
//   perfbench_runner --workload falcon-live --seed 1 --traced
//
// --traced runs an untraced round first and then a traced one, and reports
// every per-layer metric, the span self times and the tracing overhead
// (traced minus untraced experiment time). perfbench/run.py drives this
// binary; the flags --smoke, --delay-us and --corrupt exist for
// perfbench/selftest.py only.
//
// Every thread count derives from the cores this process may run on (its
// CPU affinity mask). The last stdout line is one JSON object. Exit status: 0 when every check
// holds, 1 when one fails, 2 on a usage error.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "tracing.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::RoundResult;

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Cores this process may run on; hardware_concurrency() when the affinity
/// mask cannot be read.
unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N "
               "[--traced] [--smoke] [--delay-us N] [--corrupt CHECK] "
               "[--spans PATH]\n");
  return 2;
}

void write_spans(const std::string& path, const perfbench::SpanRecorder& rec) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& spans = rec.spans();
  const auto origin = spans.empty() ? perfbench::Clock::time_point{}
                                    : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.parent, escape(s.name).c_str(),
                 std::chrono::duration<double>(s.start - origin).count(),
                 std::chrono::duration<double>(s.end - origin).count());
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RoundOptions opt;
  bool traced = false;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--traced") {
        traced = true;
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--delay-us") {
        opt.delay_micros = std::stoull(value());
      } else if (a == "--corrupt") {
        opt.corrupt = value();
      } else if (a == "--spans") {
        spans_path = value();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return usage();
    }
  }
  if (opt.workload.empty()) return usage();
  opt.cores = usable_cores();

  RoundResult result;
  perfbench::SpanRecorder spans(traced);
  double overhead_s = 0.0;
  double untraced_experiment_s = 0.0;
  try {
    if (traced) {
      perfbench::SpanRecorder off(false);
      const RoundResult untraced = perfbench::run_round(opt, off);
      untraced_experiment_s = untraced.experiment_s;
      opt.traced = true;
      result = perfbench::run_round(opt, spans);
      overhead_s = result.experiment_s - untraced_experiment_s;
      for (const perfbench::Check& c : untraced.checks) {
        if (!c.ok) result.checks.push_back({c.name + ".untraced", false, c.detail});
      }
    } else {
      result = perfbench::run_round(opt, spans);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  bool all_ok = true;
  for (const perfbench::Check& c : result.checks) {
    all_ok = all_ok && c.ok;
    std::printf("check %-22s %s  %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  }
  if (traced) {
    std::printf("%-26s %6s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, t] : spans.summary()) {
      std::printf("%-26s %6llu %12.6f %12.6f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_s,
                  t.self_s);
    }
    if (!spans_path.empty()) write_spans(spans_path, spans);
    result.layers.push_back({"trace.overhead_s", "s", overhead_s});
    result.layers.push_back(
        {"trace.overhead_share", "ratio",
         untraced_experiment_s > 0 ? overhead_s / untraced_experiment_s : 0.0});
  }

  std::string json = "{\"setup_s\": " + number(result.setup_s) +
                     ", \"experiment_s\": " + number(result.experiment_s) +
                     ", \"replay_s\": " + number(result.replay_s) +
                     ", \"peak_rss_mb\": " + number(result.peak_rss_mb) +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"checks\": {";
  for (std::size_t i = 0; i < result.checks.size(); ++i) {
    json += (i ? ", \"" : "\"") + result.checks[i].name +
            "\": " + (result.checks[i].ok ? "true" : "false");
  }
  json += "}, \"record\": {\"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"usable_cores\": " + std::to_string(opt.cores) +
          ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"seed\": " +
          std::to_string(opt.seed) + ", \"smoke\": " +
          (opt.smoke ? "true" : "false") + ", \"delay_us\": " +
          std::to_string(opt.delay_micros);
  for (const auto& [key, value] : result.record) {
    json += ", \"" + key + "\": " + value;
  }
  json += "}, \"layers\": {";
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    const perfbench::LayerMetric& m = result.layers[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return all_ok ? 0 : 1;
}
