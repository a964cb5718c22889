// Regenerates tests/support/ml_goldens.inc.
//
// The committed constants were captured from the tree *before* GBDT early
// stopping kept a running validation sum and before the ML balancers
// scored each candidate once per call on the analysis pool, so the test
// proves both changes leave every model and decision byte-identical. Run
// this only to re-base the goldens after an intentional change to the
// pipeline in tests/support/ml_golden_configs.hpp, and audit the diff:
//
//   cmake --build build --target tool_ml_goldens
//   ./build/tools/ml_goldens > tests/support/ml_goldens.inc

#include <cstdio>
#include <string>

#include "../tests/support/ml_golden_configs.hpp"

int main() {
  using namespace origami;

  std::printf("struct MlGolden {\n  std::uint64_t seed;\n"
              "  std::uint64_t benefit_model;\n"
              "  std::uint64_t popularity_model;\n"
              "  const char* ml_tree;\n  const char* origami;\n};\n");
  std::printf("constexpr MlGolden kMlGoldens[] = {\n");
  for (std::uint64_t seed : {1, 2, 3}) {
    const core::TrainedModels models = testing::ml_golden_models(seed);
    std::fprintf(stderr, "seed %llu: benefit %d trees, popularity %d trees\n",
                 static_cast<unsigned long long>(seed),
                 models.benefit->num_trees(), models.popularity->num_trees());
    std::printf("    {%llu, 0x%016llxull, 0x%016llxull,\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(
                    testing::model_fingerprint(*models.benefit)),
                static_cast<unsigned long long>(
                    testing::model_fingerprint(*models.popularity)));
    for (const char* spec : {"ml-tree", "origami"}) {
      const std::string fp = testing::escape_newlines(
          testing::ml_policy_fingerprint(spec, seed, models));
      std::printf("     \"%s\"%s\n", fp.c_str(),
                  spec == std::string("origami") ? "}," : ",");
    }
  }
  std::printf("};\n");
  return 0;
}
