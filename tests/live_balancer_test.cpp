// Tests for the live OrigamiFS rebalancing loop (Data Collector → feature
// extraction → model → Migrator, all against the real service), driven
// through the registry's live `origami` policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/core/features.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/wl/generators.hpp"

namespace origami::core {
namespace {

/// A model that predicts benefit == subtree read share (feature 3) — a
/// stand-in for the trained benefit regressor.
std::shared_ptr<ml::GbdtModel> read_share_model() {
  ml::Dataset data(feature_name_vector());
  common::Xoshiro256 rng(5);
  std::vector<float> row(kFeatureCount);
  for (int i = 0; i < 2'000; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    data.add_row(row, row[3]);
  }
  ml::GbdtParams params;
  params.rounds = 40;
  return std::make_shared<ml::GbdtModel>(ml::GbdtModel::train(data, params));
}

fs::OrigamiFs make_fs_with_hotspot() {
  fs::OrigamiFs::Options opt;
  opt.shards = 3;
  fs::OrigamiFs fsys(opt);
  for (const char* d : {"/hot", "/hot/sub", "/cold", "/cold/sub"}) {
    EXPECT_TRUE(fsys.mkdir(d).is_ok());
  }
  for (int i = 0; i < 40; ++i) {
    fsys.create("/hot/sub/f" + std::to_string(i));
    fsys.create("/cold/sub/f" + std::to_string(i));
  }
  // Hammer the hot subtree.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 40; ++i) {
      fsys.stat("/hot/sub/f" + std::to_string(i));
    }
  }
  // Touch the cold side a little.
  for (int i = 0; i < 10; ++i) fsys.stat("/cold/sub/f" + std::to_string(i));
  return fsys;
}

TEST(CollectActivity, ReportsShapeAndCounters) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  auto activity = fsys.collect_activity(/*reset=*/false);
  // Root + 4 dirs.
  EXPECT_EQ(activity.size(), 5u);
  const fs::OrigamiFs::DirActivity* hot_sub = nullptr;
  for (const auto& a : activity) {
    if (a.depth == 2 && a.sub_files == 40 && a.reads > 700) hot_sub = &a;
  }
  ASSERT_NE(hot_sub, nullptr);
  EXPECT_EQ(hot_sub->sub_dirs, 0u);
  EXPECT_EQ(hot_sub->shard, 0u);
}

TEST(CollectActivity, ResetStartsNewEpoch) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  (void)fsys.collect_activity(/*reset=*/true);
  const auto after = fsys.collect_activity(/*reset=*/false);
  for (const auto& a : after) {
    EXPECT_EQ(a.reads, 0u);
    EXPECT_EQ(a.writes, 0u);
  }
}

TEST(PathOf, ReconstructsPaths) {
  fs::OrigamiFs fsys;
  const auto a = fsys.mkdir("/a").value();
  const auto b = fsys.mkdir("/a/b").value();
  EXPECT_EQ(fsys.path_of(fs::kRootIno).value(), "/");
  EXPECT_EQ(fsys.path_of(a).value(), "/a");
  EXPECT_EQ(fsys.path_of(b).value(), "/a/b");
  EXPECT_FALSE(fsys.path_of(999999).is_ok());
}

/// A healthy-cluster fault context that records every narrated phase.
class RecordingContext final : public fs::LiveFaultContext {
 public:
  struct Phase {
    char kind;  ///< 'P'repare, 'C'ommit or 'A'bort
    fs::Ino subtree;
    std::uint32_t from;
    std::uint32_t to;
  };

  [[nodiscard]] bool shard_down(std::uint32_t) const override {
    return false;
  }
  void record_prepare(fs::Ino s, std::uint32_t f, std::uint32_t t) override {
    phases.push_back({'P', s, f, t});
  }
  void record_commit(fs::Ino s, std::uint32_t f, std::uint32_t t) override {
    phases.push_back({'C', s, f, t});
  }
  void record_abort(fs::Ino s, std::uint32_t f, std::uint32_t t) override {
    phases.push_back({'A', s, f, t});
  }

  std::vector<Phase> phases;
};

std::unique_ptr<policy::LivePolicy> live_origami(
    const std::string& spec,
    std::shared_ptr<const ml::GbdtModel> model = read_share_model()) {
  policy::PolicyContext ctx;
  ctx.benefit_model = std::move(model);
  auto made = policy::Registry::builtin().make_live(spec, ctx);
  EXPECT_TRUE(made.is_ok()) << spec;
  return std::move(made).value();
}

TEST(LiveBalancer, MovesHotSubtreeOffShardZero) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  const auto policy = live_origami("origami:min-ops=8,min-benefit=0");
  RecordingContext ctx;

  EXPECT_GT(policy->on_epoch(fsys, ctx), 0u);
  ASSERT_GE(ctx.phases.size(), 2u);
  const RecordingContext::Phase& prepare = ctx.phases[0];
  EXPECT_EQ(prepare.kind, 'P');
  EXPECT_EQ(prepare.from, 0u);
  EXPECT_NE(prepare.to, 0u);
  EXPECT_EQ(ctx.phases[1].kind, 'C');
  EXPECT_EQ(fsys.dir_shard(prepare.subtree), prepare.to);
  EXPECT_TRUE(fsys.path_of(prepare.subtree).is_ok());
  // The namespace survives the migration intact.
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(fsys.stat("/hot/sub/f" + std::to_string(i)).is_ok());
  }
  // Some fragment really lives elsewhere now.
  std::uint64_t off_zero = 0;
  for (std::size_t s = 1; s < fsys.shard_stats().size(); ++s) {
    off_zero += fsys.shard_stats()[s].entries;
  }
  EXPECT_GT(off_zero, 0u);
}

TEST(LiveBalancer, TriggerHoldsWhenBalanced) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  RecordingContext ctx;
  (void)live_origami("origami:min-ops=8,min-benefit=0")->on_epoch(fsys, ctx);

  // Next epoch: generate *balanced* traffic and expect no decisions.
  const auto hot_owner = fsys.owner_of("/hot/sub").value();
  const auto cold_owner = fsys.owner_of("/cold/sub").value();
  if (hot_owner != cold_owner) {
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 40; ++i) {
        fsys.stat("/hot/sub/f" + std::to_string(i));
        fsys.stat("/cold/sub/f" + std::to_string(i));
      }
    }
    // Two shards evenly loaded out of three: IF = 0.25 > trigger 0.05, so
    // set a trigger that tolerates it.
    RecordingContext second;
    EXPECT_EQ(live_origami("origami:min-ops=8,min-benefit=0,trigger=0.6")
                  ->on_epoch(fsys, second),
              0u);
    EXPECT_TRUE(second.phases.empty());
  }
}

TEST(LiveBalancer, NullModelIsNoop) {
  fs::OrigamiFs fsys = make_fs_with_hotspot();
  RecordingContext ctx;
  EXPECT_EQ(live_origami("origami", nullptr)->on_epoch(fsys, ctx), 0u);
  EXPECT_TRUE(ctx.phases.empty());
}

TEST(LiveReplay, ExecutesTraceWithoutFailures) {
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  cfg.projects = 4;
  cfg.modules_per_project = 3;
  cfg.sources_per_module = 8;
  cfg.headers_shared = 40;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 5'000;
  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_EQ(stats.executed, trace.ops.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.migrations, 0u);  // no balancer wired in
  EXPECT_DOUBLE_EQ(stats.shard_imbalance, 1.0);  // everything on shard 0
}

TEST(LiveReplay, BalancerHookReducesImbalance) {
  wl::TraceRwConfig cfg;
  cfg.ops = 60'000;
  cfg.projects = 6;
  cfg.modules_per_project = 4;
  cfg.sources_per_module = 10;
  cfg.headers_shared = 60;
  const wl::Trace trace = wl::make_trace_rw(cfg);

  fs::OrigamiFs::Options fopt;
  fopt.shards = 3;
  fs::OrigamiFs fsys(fopt);

  const auto policy = live_origami("origami:min-benefit=0");
  fs::LiveReplayOptions opt;
  opt.epoch_ops = 10'000;
  opt.on_epoch = [&policy](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    return policy->on_epoch(f, c);
  };
  const auto stats = fs::replay_on_live(trace, fsys, opt);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.epochs, 2u);
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_LT(stats.shard_imbalance, 0.9);
}

}  // namespace
}  // namespace origami::core
