// Tests for subtree aggregation, Table-1 feature extraction, the rebalance
// trigger, and the online balancing policies (Origami / ML-tree).
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <mutex>

#include "origami/cluster/replay.hpp"
#include "origami/common/thread_pool.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/features.hpp"
#include "origami/core/meta_opt.hpp"
#include "origami/core/subtree.hpp"
#include "origami/ml/gbdt.hpp"

#include "support/ml_golden_configs.hpp"

namespace origami::core {
namespace {

using cluster::DirEpochStats;
using cluster::EpochSnapshot;
using fsns::NodeId;

struct Fixture {
  fsns::DirTree tree;
  NodeId a{}, b{}, a1{}, a2{};
  std::vector<NodeId> a1_files, a2_files, b_files;

  Fixture() {
    a = tree.add_dir(fsns::kRootNode, "a");
    b = tree.add_dir(fsns::kRootNode, "b");
    a1 = tree.add_dir(a, "a1");
    a2 = tree.add_dir(a, "a2");
    for (int i = 0; i < 5; ++i) {
      a1_files.push_back(tree.add_file(a1, "f" + std::to_string(i)));
      a2_files.push_back(tree.add_file(a2, "g" + std::to_string(i)));
      b_files.push_back(tree.add_file(b, "h" + std::to_string(i)));
    }
    tree.finalize();
  }

  [[nodiscard]] std::vector<DirEpochStats> stats() const {
    std::vector<DirEpochStats> s(tree.size());
    s[a1] = {100, 20, 3, 0, sim::millis(120)};
    s[a2] = {10, 5, 0, 1, sim::millis(15)};
    s[a] = {4, 0, 1, 0, sim::millis(4)};
    s[b] = {50, 50, 0, 0, sim::millis(100)};
    return s;
  }
};

// ------------------------------------------------------------ SubtreeView --

TEST(SubtreeView, AggregatesBottomUp) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.reads(fx.a1), 100u);
  EXPECT_EQ(view.writes(fx.a1), 20u);
  EXPECT_EQ(view.reads(fx.a), 114u);  // a + a1 + a2
  EXPECT_EQ(view.writes(fx.a), 25u);
  EXPECT_EQ(view.rct(fx.a), sim::millis(139));
  EXPECT_EQ(view.ops(fx.b), 100u);
  EXPECT_EQ(view.total_ops(), 239u);
  EXPECT_EQ(view.lsdir_self(fx.a), 1u);
  EXPECT_EQ(view.nsm_self(fx.a2), 1u);
}

TEST(SubtreeView, StaticShapeFromTree) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.sub_files(fx.a1), 5u);
  EXPECT_EQ(view.sub_files(fx.a), 10u);
  EXPECT_EQ(view.sub_dirs(fx.a), 2u);
  EXPECT_EQ(view.sub_dirs(fsns::kRootNode), 4u);  // a, b, a1, a2
  EXPECT_EQ(view.sub_files(fsns::kRootNode), 15u);
}

TEST(SubtreeView, UniformOwnerTracksPartition) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  map.set_dir_owner(fx.a1, 1);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  EXPECT_EQ(view.uniform_owner(fx.a1), 1u);
  EXPECT_EQ(view.uniform_owner(fx.a2), 0u);
  EXPECT_EQ(view.uniform_owner(fx.a), cost::kInvalidMds);  // mixed
  EXPECT_EQ(view.uniform_owner(fx.b), 0u);
}

TEST(SubtreeView, CandidatesRankedByRct) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const auto cands = view.candidates(10, 1);
  ASSERT_GE(cands.size(), 3u);
  EXPECT_EQ(cands[0], fx.a);   // 139ms subtree
  EXPECT_EQ(cands[1], fx.a1);  // 120ms
  EXPECT_EQ(cands[2], fx.b);   // 100ms
  // min_ops filter.
  const auto heavy = view.candidates(10, 120);
  for (NodeId c : heavy) EXPECT_GE(view.ops(c), 120u);
}

TEST(SubtreeView, ApplyMigrationUpdatesUniformity) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  view.apply_migration(fx.tree, fx.a1, 1);
  EXPECT_EQ(view.uniform_owner(fx.a1), 1u);
  EXPECT_EQ(view.uniform_owner(fx.a), cost::kInvalidMds);
  EXPECT_EQ(view.uniform_owner(fsns::kRootNode), cost::kInvalidMds);
  EXPECT_EQ(view.uniform_owner(fx.b), 0u);  // untouched sibling
}

// ------------------------------------------------------- FeatureExtractor --

TEST(Features, SchemaMatchesTable1) {
  const auto names = feature_name_vector();
  ASSERT_EQ(names.size(), kFeatureCount);
  EXPECT_EQ(names[0], "depth");
  EXPECT_EQ(names[1], "sub_files");
  EXPECT_EQ(names[3], "reads");
  EXPECT_EQ(names[6], "dir_file_ratio");
}

TEST(Features, NormalisationRanges) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const FeatureExtractor extractor(fx.tree, view);
  for (NodeId d : fx.tree.directories()) {
    const auto f = extractor.extract(d);
    // Structure features normalised by max -> [0, 1].
    EXPECT_GE(f[0], 0.f);
    EXPECT_LE(f[0], 1.f);
    EXPECT_LE(f[1], 1.f);
    EXPECT_LE(f[2], 1.f);
    // History normalised by total access -> [0, 1].
    EXPECT_LE(f[3], 1.f);
    EXPECT_LE(f[4], 1.f);
    // rw ratio in [0, 1].
    EXPECT_GE(f[5], 0.f);
    EXPECT_LE(f[5], 1.f);
  }
}

TEST(Features, ValuesReflectStats) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const SubtreeView view = SubtreeView::build(fx.tree, fx.stats(), map);
  const FeatureExtractor extractor(fx.tree, view);
  const auto fa1 = extractor.extract(fx.a1);
  const auto fb = extractor.extract(fx.b);
  EXPECT_GT(fa1[3], fb[3]);              // a1 has more subtree reads
  EXPECT_GT(fb[5], fa1[5]);              // b is more write-heavy (50/100)
  EXPECT_FLOAT_EQ(fa1[0], 2.0f / 2.0f);  // depth 2, max depth 2
}

// ---------------------------------------------------------------- trigger --

EpochSnapshot snapshot_with_busy(std::vector<sim::SimTime> busy,
                                 std::uint64_t ops_each = 100) {
  EpochSnapshot snap;
  for (sim::SimTime b : busy) {
    mds::MdsEpochCounters c;
    c.busy = b;
    c.ops_executed = ops_each;
    snap.mds.push_back(c);
  }
  return snap;
}

TEST(Trigger, FiresOnlyAboveThreshold) {
  RebalanceTrigger trigger{0.2};
  EXPECT_FALSE(trigger.should_rebalance(
      snapshot_with_busy({1000, 1000, 1000, 1000, 1000})));
  EXPECT_TRUE(trigger.should_rebalance(
      snapshot_with_busy({5000, 100, 100, 100, 100})));
}

TEST(Trigger, SilentWhenNoTraffic) {
  RebalanceTrigger trigger{0.0};
  EXPECT_FALSE(
      trigger.should_rebalance(snapshot_with_busy({5000, 0, 0}, /*ops=*/0)));
}

// --------------------------------------------------------------- policies --

// Trains a GBDT that predicts high benefit for subtrees with many reads
// (feature 3) — a stand-in for a real label-gen model.
std::shared_ptr<ml::GbdtModel> reads_proxy_model() {
  ml::Dataset data(feature_name_vector());
  common::Xoshiro256 rng(31);
  std::vector<float> row(kFeatureCount);
  for (int i = 0; i < 2000; ++i) {
    for (auto& x : row) x = static_cast<float>(rng.uniform_double());
    data.add_row(row, row[3]);  // benefit == read share
  }
  ml::GbdtParams params;
  params.rounds = 40;
  return std::make_shared<ml::GbdtModel>(ml::GbdtModel::train(data, params));
}

EpochSnapshot make_snapshot(const std::vector<DirEpochStats>& stats,
                            std::vector<sim::SimTime> rct_bins) {
  EpochSnapshot snap;
  snap.dir_stats = &stats;
  for (std::size_t i = 0; i < rct_bins.size(); ++i) {
    mds::MdsEpochCounters c;
    c.rct_charged = rct_bins[i];
    c.busy = rct_bins[i];
    // Executed-op counts proportional to the bins (1 op per ms of RCT),
    // plus one so the trigger sees traffic even on balanced bins.
    c.ops_executed =
        static_cast<std::uint64_t>(rct_bins[i] / sim::millis(1)) + 1;
    snap.mds.push_back(c);
  }
  return snap;
}

TEST(OrigamiBalancer, MovesPredictedBestSubtreeToColdMds) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  auto model = reads_proxy_model();
  OrigamiBalancer::Params params;
  params.min_subtree_ops = 1;
  params.min_predicted_benefit = 0.0;
  params.max_migrations_per_epoch = 1;
  OrigamiBalancer balancer(model, cost::CostModel{}, params,
                           RebalanceTrigger{0.0});

  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(239), 0});
  const auto decisions = balancer.rebalance(snap, fx.tree, map);
  ASSERT_EQ(decisions.size(), 1u);
  // The read-share proxy ranks /a highest (subtree reads 114/239).
  EXPECT_EQ(decisions[0].subtree, fx.a);
  EXPECT_EQ(decisions[0].from, 0u);
  EXPECT_EQ(decisions[0].to, 1u);
}

TEST(OrigamiBalancer, RespectsTriggerAndMissingModel) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  const auto stats = fx.stats();
  // Balanced bins: trigger must hold it back.
  auto model = reads_proxy_model();
  OrigamiBalancer::Params params;
  params.min_subtree_ops = 1;
  OrigamiBalancer balancer(model, cost::CostModel{}, params,
                           RebalanceTrigger{0.5});
  const auto snap = make_snapshot(stats, {sim::millis(100), sim::millis(100)});
  EXPECT_TRUE(balancer.rebalance(snap, fx.tree, map).empty());

  OrigamiBalancer no_model(std::shared_ptr<const ml::GbdtModel>{},
                           cost::CostModel{}, params, RebalanceTrigger{0.0});
  const auto hot = make_snapshot(stats, {sim::millis(239), 0});
  EXPECT_TRUE(no_model.rebalance(hot, fx.tree, map).empty());
}

TEST(MlTreeBalancer, EqualisesPredictedLoad) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  auto model = reads_proxy_model();
  MlTreeBalancer::Params params;
  params.min_subtree_ops = 1;
  MlTreeBalancer balancer(model, params, RebalanceTrigger{0.0});

  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(239), 0});
  const auto decisions = balancer.rebalance(snap, fx.tree, map);
  ASSERT_FALSE(decisions.empty());
  for (const auto& d : decisions) {
    EXPECT_EQ(d.from, 0u);
    EXPECT_EQ(d.to, 1u);
  }
}

TEST(MlTreeBalancer, IdleWhenBalanced) {
  Fixture fx;
  mds::PartitionMap map(fx.tree, 2);
  map.migrate(fx.a, 0, 1);
  auto model = reads_proxy_model();
  MlTreeBalancer::Params params;
  params.min_subtree_ops = 1;
  params.target_spread = 0.5;
  MlTreeBalancer balancer(model, params, RebalanceTrigger{0.0});
  const auto stats = fx.stats();
  const auto snap = make_snapshot(stats, {sim::millis(100), sim::millis(100)});
  EXPECT_TRUE(balancer.rebalance(snap, fx.tree, map).empty());
}

// Wraps Origami with a predictor that records every feature row it is asked
// to score. After each call, every distinct row must have been scored at
// most as often as there are directories carrying it in the call's view:
// at most once per directory per `rebalance`.
class CountingOrigami final : public cluster::Balancer {
 public:
  explicit CountingOrigami(std::shared_ptr<const ml::GbdtModel> model)
      : inner_(BenefitPredictor([this, model](std::span<const float> x) {
                 std::lock_guard lock(mu_);
                 std::array<float, kFeatureCount> row{};
                 std::copy(x.begin(), x.end(), row.begin());
                 ++scored_[row];
                 return model->predict(x);
               }),
               cost::CostModel{}, OrigamiBalancer::Params{}) {}

  [[nodiscard]] std::string name() const override { return "counting"; }

  std::vector<cluster::MigrationDecision> rebalance(
      const EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override {
    scored_.clear();
    auto decisions = inner_.rebalance(snapshot, tree, map);
    if (scored_.empty()) return decisions;
    const SubtreeView view = SubtreeView::build(tree, *snapshot.dir_stats, map);
    const FeatureExtractor fx(tree, view);
    std::map<std::array<float, kFeatureCount>, std::uint64_t> dirs_with;
    for (NodeId d : tree.directories()) ++dirs_with[fx.extract(d)];
    for (const auto& [row, n] : scored_) {
      over_scored_ += n > dirs_with[row] ? 1 : 0;
    }
    if (decisions.size() >= 2) ++multi_move_calls_;
    return decisions;
  }

  std::uint64_t over_scored_ = 0;
  std::uint64_t multi_move_calls_ = 0;

 private:
  std::mutex mu_;
  std::map<std::array<float, kFeatureCount>, std::uint64_t> scored_;
  OrigamiBalancer inner_;
};

TEST(OrigamiBalancer, ScoresEachCandidateAtMostOncePerCall) {
  // Seed 1 keeps rebalancing to the end of the run, with several calls
  // that migrate more than once: each of those runs the greedy loop over
  // the candidate pool repeatedly.
  const wl::Trace trace = testing::ml_golden_trace(1);
  const cluster::ReplayOptions opt = testing::ml_golden_replay_options(1);
  CountingOrigami balancer(reads_proxy_model());
  const auto result = cluster::replay_trace(trace, opt, balancer);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_GT(balancer.multi_move_calls_, 0u);
  EXPECT_EQ(balancer.over_scored_, 0u);
}

TEST(FeatureExtractor, ScoresBitIdenticalAtOneAndFourAnalysisThreads) {
  // The scoring `ml-tree` and `origami` run on the analysis pool: every
  // directory of a full-size Trace-RW namespace, scored serially in
  // candidate order and by `score_batch` at 1 and 4 threads.
  wl::TraceRwConfig cfg;
  cfg.ops = 20'000;
  const wl::Trace trace = wl::make_trace_rw(cfg);
  std::vector<DirEpochStats> stats(trace.tree.size());
  for (const wl::MetaOp& op : trace.ops) {
    const NodeId dir = trace.tree.is_dir(op.target)
                           ? op.target
                           : trace.tree.parent(op.target);
    ++stats[dir].reads;
    stats[dir].rct += sim::micros(10);
  }
  mds::PartitionMap map(trace.tree, 5);
  mds::partitioner::fine_hash(map);
  const SubtreeView view = SubtreeView::build(trace.tree, stats, map);
  const FeatureExtractor fx(trace.tree, view);
  const std::vector<NodeId> dirs = trace.tree.directories();
  ASSERT_GT(dirs.size(), 1000u);
  const auto model = reads_proxy_model();
  const auto predict = [&](std::span<const float> x) {
    return model->predict(x);
  };

  std::vector<double> serial(dirs.size());
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    serial[i] = model->predict(fx.extract(dirs[i]));
  }
  for (const std::size_t threads : {1u, 4u}) {
    common::set_analysis_threads(threads);
    const std::vector<double> scores = fx.score_batch(dirs, predict);
    ASSERT_EQ(scores.size(), serial.size());
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(scores[i]),
                std::bit_cast<std::uint64_t>(serial[i]))
          << threads << " threads, dir " << dirs[i];
    }
  }
  common::set_analysis_threads(1);
}

TEST(StaticBalancer, NamesAndPartitioning) {
  Fixture fx;
  cluster::StaticBalancer single(cluster::StaticBalancer::Kind::kSingle);
  cluster::StaticBalancer coarse(cluster::StaticBalancer::Kind::kCoarseHash);
  cluster::StaticBalancer fine(cluster::StaticBalancer::Kind::kFineHash);
  EXPECT_EQ(single.name(), "single");
  EXPECT_EQ(coarse.name(), "c-hash");
  EXPECT_EQ(fine.name(), "f-hash");
  mds::PartitionMap map(fx.tree, 4);
  fine.prepare(fx.tree, map);
  std::uint64_t total = 0;
  for (auto c : map.inode_counts()) total += c;
  EXPECT_EQ(total, fx.tree.size());
}

}  // namespace
}  // namespace origami::core
