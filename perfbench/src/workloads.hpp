#pragma once

// The three benchmark workloads. One call runs one round of a workload:
// set-up (trace generation, empty cluster or filesystem), the timed
// experiment, then the correctness checks, which are never timed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tracing.hpp"

namespace perfbench {

struct RoundOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Cores the process may run on (its affinity mask); every thread count
  /// derives from it.
  unsigned cores = 1;
  /// Attach the recorders and run the 1-thread references and the KV probe.
  bool traced = false;
  /// Small inputs for the self-test; never used by a measured run.
  bool smoke = false;
  /// Sensitivity self-test only: host delay added to every balancer
  /// decision (epoch DES) and every live epoch hook.
  std::uint64_t delay_micros = 0;
  /// Self-test only: the check whose input is corrupted before checking.
  std::string corrupt;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// A per-layer metric of the traced run.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RoundResult {
  double setup_s = 0.0;
  double experiment_s = 0.0;
  double replay_s = 0.0;
  /// Peak resident set of the experiment above what set-up left resident,
  /// with set-up's freed heap returned to the OS first (MB).
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Run record: thread counts and sizes (string values, printed as-is).
  std::vector<std::pair<std::string, std::string>> record;
  /// Human-readable lines: input make-up and virtual-clock figures.
  std::vector<std::string> notes;
  /// Every per-layer metric, 0 for layers this workload does not exercise.
  /// Filled only by a traced round.
  std::vector<LayerMetric> layers;
};

/// Runs one round. Throws std::invalid_argument on an unknown workload.
RoundResult run_round(const RoundOptions& options, SpanRecorder& spans);

}  // namespace perfbench
