#include "origami/policy/baselines.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "origami/common/hash.hpp"
#include "origami/core/features.hpp"
#include "origami/core/subtree.hpp"
#include "origami/cost/cost_model.hpp"

namespace origami::policy {

namespace {

using cost::MdsId;
using fsns::NodeId;

/// The per-MDS "cpu" load vector (busy service time) every baseline keys
/// its decisions on, as doubles for imbalance math.
std::vector<double> busy_load(const cluster::EpochSnapshot& snap) {
  std::vector<double> load;
  load.reserve(snap.mds.size());
  for (const auto& m : snap.mds) load.push_back(static_cast<double>(m.busy));
  return load;
}

MdsId argmax(const std::vector<double>& v) {
  return static_cast<MdsId>(std::max_element(v.begin(), v.end()) - v.begin());
}

MdsId argmin_excluding(const std::vector<double>& v, MdsId skip) {
  MdsId best = cost::kInvalidMds;
  for (MdsId m = 0; m < static_cast<MdsId>(v.size()); ++m) {
    if (m == skip) continue;
    if (best == cost::kInvalidMds || v[m] < v[best]) best = m;
  }
  return best;
}

/// The fine-hash owner of a directory (same mix as partitioner::fine_hash,
/// so hash-repart converges onto exactly the f-hash placement). Serves the
/// simulator's node ids and the live service's inodes alike.
std::uint32_t hash_owner(std::uint64_t dir, std::size_t owners) {
  return static_cast<std::uint32_t>(common::mix64(dir + 0x9e3779b9) % owners);
}

}  // namespace

std::vector<cluster::MigrationDecision> GreedySpillBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  core::SubtreeView view =
      core::SubtreeView::build(tree, *snapshot.dir_stats, map);
  const auto cands =
      view.candidates(params_.max_candidates, params_.min_subtree_ops);
  if (cands.empty()) return {};

  std::vector<double> load = busy_load(snapshot);
  double total = 0.0;
  for (double l : load) total += l;
  const double mean = total / static_cast<double>(load.size());

  std::vector<cluster::MigrationDecision> decisions;
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  // Candidates arrive hottest-first (ranked by subtree RCT); spill each one
  // owned by the *currently* hottest MDS onto the coldest, re-evaluating
  // loads after every move.
  for (const NodeId subtree : cands) {
    if (decisions.size() >=
        static_cast<std::size_t>(params_.max_migrations_per_epoch)) {
      break;
    }
    const MdsId hot = argmax(load);
    if (load[hot] <= mean) break;  // source at or below mean: balanced
    if (view.uniform_owner(subtree) != hot) continue;
    if (tree.node(subtree).subtree_nodes > inode_budget) continue;
    const MdsId cold = argmin_excluding(load, hot);
    if (cold == cost::kInvalidMds) break;
    const auto moved = static_cast<double>(view.rct(subtree));
    if (moved <= 0.0) continue;
    if (load[cold] + moved > load[hot] - moved) continue;  // would overshoot
    load[hot] -= moved;
    load[cold] += moved;
    inode_budget -= tree.node(subtree).subtree_nodes;
    tree.visit_subtree(subtree, [&](NodeId id) {
      if (tree.is_dir(id)) view.exclude(id);
    });
    decisions.push_back({subtree, hot, cold, moved / 1e9});
  }
  return decisions;
}

void HashRepartitionBalancer::prepare(const fsns::DirTree& tree,
                                      mds::PartitionMap& map) {
  (void)tree;
  mds::partitioner::coarse_hash(map, params_.coarse_levels);
}

std::vector<cluster::MigrationDecision> HashRepartitionBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  const auto& stats = *snapshot.dir_stats;
  // Directories whose current owner drifted from the fine-hash owner,
  // hottest (by own-epoch RCT) first; NodeId breaks ties so the order is
  // fully deterministic.
  std::vector<std::pair<double, NodeId>> drifted;
  for (const NodeId d : tree.directories()) {
    const MdsId want = hash_owner(d, map.mds_count());
    if (map.dir_owner(d) == want) continue;
    drifted.emplace_back(-static_cast<double>(stats[d].rct), d);
  }
  std::sort(drifted.begin(), drifted.end());

  std::vector<cluster::MigrationDecision> decisions;
  for (const auto& [neg_heat, d] : drifted) {
    (void)neg_heat;
    if (decisions.size() >=
        static_cast<std::size_t>(params_.max_moves_per_epoch)) {
      break;
    }
    cluster::MigrationDecision dec;
    dec.subtree = d;
    dec.from = map.dir_owner(d);
    dec.to = hash_owner(d, map.mds_count());
    dec.whole_subtree = false;  // directory-granular re-hash
    decisions.push_back(dec);
  }
  return decisions;
}

std::vector<cluster::MigrationDecision> LoadFractionBalancer::rebalance(
    const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
    const mds::PartitionMap& map) {
  if (snapshot.dir_stats == nullptr) return {};
  if (!trigger_.should_rebalance(snapshot)) return {};

  core::SubtreeView view =
      core::SubtreeView::build(tree, *snapshot.dir_stats, map);
  const auto cands =
      view.candidates(params_.max_candidates, params_.min_subtree_ops);
  if (cands.empty()) return {};

  std::vector<double> load = busy_load(snapshot);
  double total = 0.0;
  for (double l : load) total += l;
  const double mean = total / static_cast<double>(load.size());

  // Exporters ranked by excess over the mean (descending; MdsId ties).
  std::vector<MdsId> exporters;
  for (MdsId m = 0; m < static_cast<MdsId>(load.size()); ++m) {
    if (load[m] > mean) exporters.push_back(m);
  }
  std::stable_sort(exporters.begin(), exporters.end(),
                   [&](MdsId a, MdsId b) { return load[a] > load[b]; });

  std::vector<cluster::MigrationDecision> decisions;
  std::uint64_t inode_budget = params_.max_inodes_per_epoch;
  for (const MdsId exporter : exporters) {
    const double excess = load[exporter] - mean;
    if (excess <= 0.0) continue;
    double shed = 0.0;
    for (const NodeId subtree : cands) {
      if (decisions.size() >=
          static_cast<std::size_t>(params_.max_migrations_per_epoch)) {
        return decisions;
      }
      if (shed >= excess) break;  // this exporter's fraction is met
      if (view.uniform_owner(subtree) != exporter) continue;
      if (tree.node(subtree).subtree_nodes > inode_budget) continue;
      const auto l = static_cast<double>(view.rct(subtree));
      if (l <= 0.0) continue;
      // A slice far beyond the remaining excess would overshoot the mean;
      // skip it and keep walking colder candidates.
      if (l > (excess - shed) * 1.5) continue;
      const MdsId importer = argmin_excluding(load, exporter);
      if (importer == cost::kInvalidMds) return decisions;
      if (load[importer] + l > load[exporter] - l) continue;
      load[exporter] -= l;
      load[importer] += l;
      shed += l;
      inode_budget -= tree.node(subtree).subtree_nodes;
      tree.visit_subtree(subtree, [&](NodeId id) {
        if (tree.is_dir(id)) view.exclude(id);
      });
      decisions.push_back({subtree, exporter, importer, l / 1e9});
    }
  }
  return decisions;
}

// ---------------------------------------------------------------------------
// Live-mode forms: the same decision rules against the live Data Collector.
// ---------------------------------------------------------------------------

namespace {

/// One directory of a live activity drain, its counters rolled up over the
/// directories below it.
struct LiveNode {
  fs::Ino ino = fs::kInvalidIno;
  fs::Ino parent = fs::kInvalidIno;
  std::uint32_t depth = 0;
  std::uint32_t shard = 0;
  bool uniform = true;  ///< the whole subtree lives on `shard`
  bool frozen = false;  ///< inside a subtree committed this epoch
  std::uint64_t sub_files = 0;
  std::uint64_t sub_dirs = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t self_ops = 0;  ///< the directory's own reads+writes

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
};

/// The subtree view every live policy decides on: one drain of the Data
/// Collector, aggregated per subtree, plus the per-shard op load.
struct LiveView {
  std::vector<LiveNode> nodes;
  std::unordered_map<fs::Ino, std::size_t> index;  ///< ino -> nodes slot
  std::vector<double> shard_load;
  std::uint64_t total_ops = 0;

  [[nodiscard]] double mean_load() const {
    return static_cast<double>(total_ops) /
           static_cast<double>(shard_load.size());
  }

  /// Freezes every node whose ancestor chain reaches `nodes[root]`,
  /// `root` included: those entries moved with it, so the view's shard
  /// for them is stale.
  void freeze(std::size_t root) {
    for (LiveNode& n : nodes) {
      for (fs::Ino cur = n.ino; cur != fs::kInvalidIno;) {
        if (cur == nodes[root].ino) {
          n.frozen = true;
          break;
        }
        const auto it = index.find(cur);
        if (it == index.end()) break;
        cur = nodes[it->second].parent;
      }
    }
  }
};

LiveView live_view(fs::OrigamiFs& fsys) {
  LiveView v;
  const auto activity = fsys.collect_activity(/*reset=*/true);
  v.shard_load.assign(fsys.shard_count(), 0.0);
  v.nodes.resize(activity.size());
  v.index.reserve(activity.size());
  for (std::size_t i = 0; i < activity.size(); ++i) {
    const auto& a = activity[i];
    const std::uint64_t ops = a.reads + a.writes;
    v.nodes[i] = {.ino = a.ino,
                  .parent = a.parent,
                  .depth = a.depth,
                  .shard = a.shard,
                  .sub_files = a.sub_files,
                  .sub_dirs = a.sub_dirs,
                  .reads = a.reads,
                  .writes = a.writes,
                  .self_ops = ops};
    v.shard_load[a.shard] += static_cast<double>(ops);
    v.total_ops += ops;
    v.index.emplace(a.ino, i);
  }
  // Deepest-first parent propagation turns per-dir counters into subtree
  // aggregates and labels ownership uniformity.
  std::vector<std::size_t> order(v.nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return v.nodes[a].depth > v.nodes[b].depth;
                   });
  for (std::size_t i : order) {
    const auto pit = v.index.find(v.nodes[i].parent);
    if (pit == v.index.end()) continue;
    const LiveNode& n = v.nodes[i];
    LiveNode& p = v.nodes[pit->second];
    p.sub_files += n.sub_files;
    p.sub_dirs += n.sub_dirs;
    p.reads += n.reads;
    p.writes += n.writes;
    if (!n.uniform || n.shard != p.shard) p.uniform = false;
  }
  return v;
}

/// Uniform non-root subtrees with at least `min_ops` ops, hottest first
/// (ino breaks ties).
std::vector<std::size_t> hottest_uniform(const LiveView& v,
                                         std::uint64_t min_ops) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < v.nodes.size(); ++i) {
    const LiveNode& n = v.nodes[i];
    if (!n.uniform || n.ino == fs::kRootIno || n.ops() < min_ops) continue;
    order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const LiveNode& x = v.nodes[a];
    const LiveNode& y = v.nodes[b];
    if (x.ops() != y.ops()) return x.ops() > y.ops();
    return x.ino < y.ino;
  });
  return order;
}

/// The baselines' smoothed trigger over the view's shard-op imbalance.
bool baseline_fires(const LiveView& v, core::TriggerSmoother& smoother,
                    const LiveBaselineParams& p) {
  return v.total_ops != 0 &&
         smoother.over(cost::imbalance_factor(v.shard_load),
                       p.trigger_threshold, p.ewma_alpha, p.patience);
}

enum class MoveOutcome { kNotStarted, kRolledBack, kCommitted };

/// One two-phase live move: PREPARE, migrate, then COMMIT — or ABORT,
/// either because the copy never started (the subtree vanished or went
/// non-uniform) or, with a rollback to `from`, because the destination
/// died mid-copy.
MoveOutcome two_phase_move(fs::OrigamiFs& fsys, fs::LiveFaultContext& ctx,
                           fs::Ino subtree, std::uint32_t from,
                           std::uint32_t to) {
  ctx.record_prepare(subtree, from, to);
  const auto moved = fsys.migrate_subtree_ino(subtree, to);
  if (!moved.is_ok()) {
    ctx.record_abort(subtree, from, to);
    return MoveOutcome::kNotStarted;
  }
  if (ctx.shard_down(to)) {
    (void)fsys.migrate_subtree_ino(subtree, from);
    ctx.record_abort(subtree, from, to);
    return MoveOutcome::kRolledBack;
  }
  ctx.record_commit(subtree, from, to);
  return MoveOutcome::kCommitted;
}

/// Least-loaded healthy shard other than `skip`, or UINT32_MAX.
std::uint32_t live_argmin(const std::vector<double>& load, std::uint32_t skip,
                          const fs::LiveFaultContext& ctx) {
  std::uint32_t best = UINT32_MAX;
  for (std::uint32_t s = 0; s < load.size(); ++s) {
    if (s == skip || ctx.shard_down(s)) continue;
    if (best == UINT32_MAX || load[s] < load[best]) best = s;
  }
  return best;
}

}  // namespace

std::uint64_t LiveOrigamiPolicy::on_epoch(fs::OrigamiFs& fsys,
                                          fs::LiveFaultContext& ctx) {
  if (model_ == nullptr) return 0;
  LiveView v = live_view(fsys);
  if (v.total_ops == 0 ||
      cost::imbalance_factor(v.shard_load) < params_.trigger_threshold) {
    return 0;
  }

  // Table-1 features of every uniform subtree, scored by the model. The
  // read/write shares divide by the sum of all subtree totals, so an op
  // counts once per directory on its path.
  double max_depth = 1, max_files = 1, max_dirs = 1, path_ops = 0;
  for (const LiveNode& n : v.nodes) {
    max_depth = std::max(max_depth, static_cast<double>(n.depth));
    max_files = std::max(max_files, static_cast<double>(n.sub_files));
    max_dirs = std::max(max_dirs, static_cast<double>(n.sub_dirs));
    path_ops += static_cast<double>(n.ops());
  }
  std::vector<std::pair<std::size_t, double>> scored;  // (node, prediction)
  std::array<float, core::kFeatureCount> feat{};
  for (std::size_t i = 0; i < v.nodes.size(); ++i) {
    const LiveNode& n = v.nodes[i];
    if (!n.uniform || n.ino == fs::kRootIno) continue;
    if (n.ops() < params_.min_subtree_ops) continue;
    const auto reads = static_cast<double>(n.reads);
    const auto writes = static_cast<double>(n.writes);
    const auto files = static_cast<double>(n.sub_files);
    const auto dirs = static_cast<double>(n.sub_dirs);
    feat[0] = static_cast<float>(n.depth / max_depth);
    feat[1] = static_cast<float>(files / max_files);
    feat[2] = static_cast<float>(dirs / max_dirs);
    feat[3] = static_cast<float>(reads / path_ops);
    feat[4] = static_cast<float>(writes / path_ops);
    feat[5] = static_cast<float>(writes / std::max(1.0, reads + writes));
    feat[6] = static_cast<float>((dirs + 1.0) / (files + 1.0));
    const double pred = model_->predict(feat);
    if (pred > params_.min_predicted_benefit) scored.emplace_back(i, pred);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });

  // Greedy migration, highest predicted benefit first.
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  for (const auto& [i, pred] : scored) {
    (void)pred;
    if (attempted >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) {
      break;
    }
    const LiveNode& n = v.nodes[i];
    if (n.frozen) continue;
    const std::uint32_t from = n.shard;
    if (ctx.shard_down(from)) continue;
    const std::uint32_t to = live_argmin(v.shard_load, from, ctx);
    if (to == UINT32_MAX || v.shard_load[from] <= v.shard_load[to]) continue;
    // Overshoot guard (the Δ-guard idea on live counters): the destination
    // must not end above the source's pre-move load.
    const auto load = static_cast<double>(n.ops());
    if (v.shard_load[to] + load > v.shard_load[from]) continue;
    const MoveOutcome outcome = two_phase_move(fsys, ctx, n.ino, from, to);
    if (outcome == MoveOutcome::kNotStarted) continue;
    ++attempted;
    if (outcome == MoveOutcome::kRolledBack) continue;
    ++committed;
    v.shard_load[from] -= load;
    v.shard_load[to] += load;
    v.freeze(i);
  }
  return committed;
}

std::uint64_t LiveGreedySpillPolicy::on_epoch(fs::OrigamiFs& fsys,
                                              fs::LiveFaultContext& ctx) {
  LiveView v = live_view(fsys);
  if (!baseline_fires(v, smoother_, params_)) return 0;
  const double mean = v.mean_load();

  std::uint64_t moves = 0;
  for (const std::size_t i : hottest_uniform(v, params_.min_subtree_ops)) {
    if (moves >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) break;
    const LiveNode& n = v.nodes[i];
    if (n.frozen) continue;
    const std::uint32_t from = n.shard;
    if (ctx.shard_down(from)) continue;
    if (v.shard_load[from] <= mean) continue;  // source already balanced
    const std::uint32_t to = live_argmin(v.shard_load, from, ctx);
    if (to == UINT32_MAX) break;
    const auto load = static_cast<double>(n.ops());
    if (v.shard_load[to] + load > v.shard_load[from] - load) continue;
    if (two_phase_move(fsys, ctx, n.ino, from, to) !=
        MoveOutcome::kCommitted) {
      continue;
    }
    ++moves;
    v.shard_load[from] -= load;
    v.shard_load[to] += load;
    v.freeze(i);
  }
  return moves;
}

std::uint64_t LiveHashRepartitionPolicy::on_epoch(fs::OrigamiFs& fsys,
                                                  fs::LiveFaultContext& ctx) {
  LiveView v = live_view(fsys);
  if (!baseline_fires(v, smoother_, params_)) return 0;
  // Drifted leaf directories (no child dirs: the whole-subtree move is the
  // directory itself), hottest first, ino ties.
  std::vector<std::size_t> drifted;
  for (std::size_t i = 0; i < v.nodes.size(); ++i) {
    const LiveNode& n = v.nodes[i];
    if (n.ino == fs::kRootIno || n.sub_dirs != 0) continue;
    if (n.shard == hash_owner(n.ino, fsys.shard_count())) continue;
    drifted.push_back(i);
  }
  std::stable_sort(drifted.begin(), drifted.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (v.nodes[a].self_ops != v.nodes[b].self_ops) {
                       return v.nodes[a].self_ops > v.nodes[b].self_ops;
                     }
                     return v.nodes[a].ino < v.nodes[b].ino;
                   });
  std::uint64_t moves = 0;
  for (const std::size_t i : drifted) {
    if (moves >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) break;
    const LiveNode& n = v.nodes[i];
    const std::uint32_t want = hash_owner(n.ino, fsys.shard_count());
    if (ctx.shard_down(n.shard) || ctx.shard_down(want)) continue;
    if (two_phase_move(fsys, ctx, n.ino, n.shard, want) ==
        MoveOutcome::kCommitted) {
      ++moves;
    }
  }
  return moves;
}

std::uint64_t LiveLoadFractionPolicy::on_epoch(fs::OrigamiFs& fsys,
                                               fs::LiveFaultContext& ctx) {
  LiveView v = live_view(fsys);
  if (!baseline_fires(v, smoother_, params_)) return 0;
  const double mean = v.mean_load();
  const std::vector<std::size_t> order =
      hottest_uniform(v, params_.min_subtree_ops);

  // Exporters by excess, descending (shard id ties).
  std::vector<std::uint32_t> exporters;
  for (std::uint32_t s = 0; s < v.shard_load.size(); ++s) {
    if (v.shard_load[s] > mean && !ctx.shard_down(s)) exporters.push_back(s);
  }
  std::stable_sort(exporters.begin(), exporters.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return v.shard_load[a] > v.shard_load[b];
                   });

  std::uint64_t moves = 0;
  for (const std::uint32_t exporter : exporters) {
    const double excess = v.shard_load[exporter] - mean;
    if (excess <= 0.0) continue;
    double shed = 0.0;
    for (const std::size_t i : order) {
      if (moves >= static_cast<std::uint64_t>(params_.max_moves_per_epoch)) {
        return moves;
      }
      if (shed >= excess) break;
      const LiveNode& n = v.nodes[i];
      if (n.frozen || n.shard != exporter) continue;
      const auto load = static_cast<double>(n.ops());
      if (load > (excess - shed) * 1.5) continue;
      const std::uint32_t to = live_argmin(v.shard_load, exporter, ctx);
      if (to == UINT32_MAX) return moves;
      if (v.shard_load[to] + load > v.shard_load[exporter] - load) continue;
      if (two_phase_move(fsys, ctx, n.ino, exporter, to) !=
          MoveOutcome::kCommitted) {
        continue;
      }
      ++moves;
      shed += load;
      v.shard_load[exporter] -= load;
      v.shard_load[to] += load;
      v.freeze(i);
    }
  }
  return moves;
}

}  // namespace origami::policy
