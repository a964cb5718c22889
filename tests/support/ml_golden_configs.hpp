#pragma once

// The model pipeline behind the ML-path golden fingerprints: Meta-OPT label
// generation on a small Trace-RW, the GBDT pair fitted to those labels, and
// `ml-tree` / `origami` replays driven by the fitted models.
// tools/ml_goldens.cpp captured the fingerprints from the tree before the
// GBDT's early stopping became a running validation sum and the balancers
// began scoring candidates once per call on the analysis pool;
// tests/ml_golden_test.cpp recomputes them and demands the same bytes.
// Change anything here and the committed goldens are void — regenerate
// with the tool and re-audit the diff.

#include <cstdint>
#include <sstream>
#include <string>

#include "origami/cluster/replay.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/generators.hpp"

#include "fingerprints.hpp"

namespace origami::testing {

/// Training traces come from a sibling seed, as in a deployment that fits
/// on yesterday's trace and serves today's.
inline constexpr std::uint64_t kMlGoldenSiblingOffset = 98;

inline wl::Trace ml_golden_trace(std::uint64_t seed) {
  wl::TraceRwConfig cfg;
  cfg.ops = 40'000;
  cfg.projects = 6;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 10;
  cfg.headers_shared = 60;
  cfg.seed = seed;
  return wl::make_trace_rw(cfg);
}

inline cluster::ReplayOptions ml_golden_replay_options(std::uint64_t seed) {
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 8;
  opt.epoch_length = sim::millis(100);
  opt.warmup_epochs = 1;
  opt.seed = seed + 100;
  return opt;
}

/// The deployed training recipe at a small round budget: early stopping on
/// a 20% validation split, as every bench and the runner use it.
inline ml::GbdtParams ml_golden_gbdt_params() {
  ml::GbdtParams p;
  p.rounds = 200;
  p.early_stopping_rounds = 30;
  return p;
}

inline core::TrainedModels ml_golden_models(std::uint64_t seed) {
  core::LabelGenOptions lg;
  lg.replay = ml_golden_replay_options(seed);
  lg.meta_opt.cache_enabled = lg.replay.cache_enabled;
  lg.meta_opt.cache_depth = lg.replay.cache_depth;
  const core::LabelGenResult labels = core::generate_labels(
      ml_golden_trace(seed + kMlGoldenSiblingOffset), lg);
  return core::train_models(labels, ml_golden_gbdt_params());
}

inline std::uint64_t model_fingerprint(const ml::GbdtModel& model) {
  std::ostringstream out;
  model.save(out);
  return fnv1a(out.str());
}

/// Whole-run fingerprint of `spec` ("ml-tree" or "origami") replaying the
/// seed's evaluation trace with the given models.
inline std::string ml_policy_fingerprint(const std::string& spec,
                                         std::uint64_t seed,
                                         const core::TrainedModels& models) {
  const cluster::ReplayOptions opt = ml_golden_replay_options(seed);
  policy::PolicyContext ctx;
  ctx.options = &opt;
  ctx.benefit_model = models.benefit;
  ctx.popularity_model = models.popularity;
  auto made = policy::Registry::builtin().make(spec, ctx);
  if (!made.is_ok()) return "policy error: " + made.status().to_string();
  return run_result_fingerprint(
      cluster::replay_trace(ml_golden_trace(seed), opt, *made.value()));
}

}  // namespace origami::testing
