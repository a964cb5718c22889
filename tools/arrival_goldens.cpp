// Regenerates tests/support/arrival_goldens.inc.
//
// The committed constants were captured from the tree *before* request
// issuing moved behind wl::ArrivalPolicy (the engines' hard-coded
// closed/open loops), so the test proves the refactor is byte-invisible.
// Run this only to re-base the goldens after an intentional change to the
// configs in tests/support/arrival_golden_configs.hpp, and audit the diff:
//
//   cmake --build build --target tool_arrival_goldens
//   ./build/tools/arrival_goldens > tests/support/arrival_goldens.inc

#include <cstdio>
#include <string>

#include "origami/cluster/replay.hpp"
#include "origami/policy/registry.hpp"

#include "../tests/support/arrival_golden_configs.hpp"
#include "../tests/support/fingerprints.hpp"

int main() {
  using namespace origami;

  std::printf("struct Golden { const char* key; const char* fp; };\n");
  std::printf("constexpr Golden kGoldens[] = {\n");
  for (std::uint64_t seed : {1, 2, 3}) {
    const wl::Trace trace = testing::golden_trace(seed);
    for (const bool faulted : {false, true}) {
      for (const bool open : {false, true}) {
        const std::string tag = std::to_string(seed) +
                                (faulted ? "/faulted" : "/clean") +
                                (open ? "/open" : "/closed");
        {
          const auto opt = testing::golden_epoch_options(seed, faulted, open);
          policy::PolicyContext ctx;
          ctx.options = &opt;
          auto made = policy::Registry::builtin().make("greedy-spill", ctx);
          if (!made.is_ok()) {
            std::fprintf(stderr, "policy: %s\n",
                         made.status().to_string().c_str());
            return 1;
          }
          const auto result =
              cluster::replay_trace(trace, opt, *made.value());
          const std::string fp = testing::escape_newlines(
              testing::run_result_fingerprint(result));
          std::printf("    {\"epoch/%s\",\n     \"%s\"},\n", tag.c_str(),
                      fp.c_str());
        }
        {
          const auto opt = testing::golden_live_options(seed, faulted, open);
          fs::OrigamiFs::Options fopt;
          fopt.shards = 4;
          fs::OrigamiFs fsys(fopt);
          const auto stats = fs::replay_on_live(trace, fsys, opt);
          const std::string fp = testing::escape_newlines(
              testing::live_stats_fingerprint(stats));
          std::printf("    {\"live/%s\",\n     \"%s\"},\n", tag.c_str(),
                      fp.c_str());
        }
      }
    }
  }
  std::printf("};\n");
  return 0;
}
