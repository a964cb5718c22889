// The ML-path golden byte-identity contract: Meta-OPT labels on a small
// Trace-RW, the GBDT pair fitted to them (saved text, FNV-1a folded), and
// whole-run fingerprints of the `ml-tree` and `origami` replays those
// models drive, over three seeds, plus the live form of every policy that
// has one (final shard map included), clean and faulted. The goldens in
// tests/support/ml_goldens.inc were captured before early stopping became
// a running validation sum and before candidates were scored once per
// `rebalance` call; regenerate them only with tools/ml_goldens.cpp and
// audit the diff.
#include <gtest/gtest.h>

#include "origami/common/thread_pool.hpp"

#include "support/ml_golden_configs.hpp"

namespace origami {
namespace {

#include "support/ml_goldens.inc"

TEST(MlGolden, ModelsAndReplaysMatchGoldens) {
  for (const MlGolden& g : kMlGoldens) {
    SCOPED_TRACE("seed " + std::to_string(g.seed));
    const core::TrainedModels models = testing::ml_golden_models(g.seed);
    EXPECT_EQ(testing::model_fingerprint(*models.benefit), g.benefit_model);
    EXPECT_EQ(testing::model_fingerprint(*models.popularity),
              g.popularity_model);
    EXPECT_EQ(testing::ml_policy_fingerprint("ml-tree", g.seed, models),
              g.ml_tree);
    EXPECT_EQ(testing::ml_policy_fingerprint("origami", g.seed, models),
              g.origami);
  }
}

// One fingerprint per live policy, clean and with crashes armed, checked at
// one and three shard-serving workers (the live engine's output does not
// depend on the worker count). One test per seed keeps each well inside the
// ThreadSanitizer stage's per-test timeout.
void expect_live_goldens(std::uint64_t seed) {
  const core::TrainedModels models = testing::ml_golden_models(seed);
  for (const MlLiveGolden& g : kMlLiveGoldens) {
    if (g.seed != seed) continue;
    for (std::uint32_t threads : {1u, 3u}) {
      SCOPED_TRACE(std::string(g.spec) + (g.faulted ? " faulted" : " clean") +
                   " threads " + std::to_string(threads));
      EXPECT_EQ(testing::ml_live_fingerprint(g.spec, g.seed, models,
                                             g.faulted, threads),
                g.fingerprint);
    }
  }
}

TEST(MlGolden, LivePoliciesMatchGoldensSeed1) { expect_live_goldens(1); }
TEST(MlGolden, LivePoliciesMatchGoldensSeed2) { expect_live_goldens(2); }
TEST(MlGolden, LivePoliciesMatchGoldensSeed3) { expect_live_goldens(3); }

TEST(MlGolden, ModelsAndReplaysMatchGoldensOnFourAnalysisThreads) {
  common::set_analysis_threads(4);
  const MlGolden& g = kMlGoldens[0];
  const core::TrainedModels models = testing::ml_golden_models(g.seed);
  EXPECT_EQ(testing::model_fingerprint(*models.benefit), g.benefit_model);
  EXPECT_EQ(testing::model_fingerprint(*models.popularity),
            g.popularity_model);
  EXPECT_EQ(testing::ml_policy_fingerprint("ml-tree", g.seed, models),
            g.ml_tree);
  EXPECT_EQ(testing::ml_policy_fingerprint("origami", g.seed, models),
            g.origami);
  common::set_analysis_threads(1);
}

}  // namespace
}  // namespace origami
