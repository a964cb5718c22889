// The ML-path golden byte-identity contract: Meta-OPT labels on a small
// Trace-RW, the GBDT pair fitted to them (saved text, FNV-1a folded), and
// whole-run fingerprints of the `ml-tree` and `origami` replays those
// models drive, over three seeds. The goldens in
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
