#pragma once

// Three registered baseline policies beyond the paper's strategy set, in
// both engine modes: a `cluster::Balancer` for the simulator and a
// `policy::LivePolicy` for the live OrigamiFS service. The live form of
// Origami sits beside them: all four live policies decide on one shared
// subtree view of the Data Collector drain and narrate every move through
// one two-phase PREPARE/COMMIT/ABORT helper. All are deterministic
// (index-ordered scans, stable sorts, no RNG).

#include <cstdint>
#include <memory>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/core/balancers.hpp"
#include "origami/ml/gbdt.hpp"
#include "origami/policy/registry.hpp"

namespace origami::policy {

/// Classic greedy spill: when the busy-time imbalance trigger fires, shed
/// the hottest MDS's hottest subtrees onto the least-loaded MDS until the
/// source projects at or below the mean (or the budget runs out). The
/// textbook work-stealing baseline — measured load only, no predictions,
/// no locality costing.
class GreedySpillBalancer final : public cluster::Balancer {
 public:
  struct Params {
    double trigger_threshold = 0.10;
    double ewma_alpha = 1.0;
    int patience = 1;
    int max_migrations_per_epoch = 24;
    std::size_t max_candidates = 1024;
    std::uint64_t min_subtree_ops = 16;
    std::uint64_t max_inodes_per_epoch = 100'000;
  };

  explicit GreedySpillBalancer(Params params)
      : params_(params),
        trigger_(params.trigger_threshold, params.ewma_alpha,
                 params.patience) {}

  [[nodiscard]] std::string name() const override { return "greedy-spill"; }
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  Params params_;
  core::RebalanceTrigger trigger_;
};

/// Periodic hash repartitioning: starts from the coarse-hash placement and,
/// whenever the trigger fires, migrates the hottest directories whose
/// current owner has drifted from their fine-hash owner back to hash
/// ownership (directory-granular moves, no subtree locality). Models the
/// "just rehash it" school of metadata distribution.
class HashRepartitionBalancer final : public cluster::Balancer {
 public:
  struct Params {
    double trigger_threshold = 0.10;
    double ewma_alpha = 1.0;
    int patience = 1;
    /// Directories re-hashed per firing epoch.
    int max_moves_per_epoch = 64;
    /// Coarse-hash depth of the initial placement.
    std::uint32_t coarse_levels = 2;
  };

  explicit HashRepartitionBalancer(Params params)
      : params_(params),
        trigger_(params.trigger_threshold, params.ewma_alpha,
                 params.patience) {}

  [[nodiscard]] std::string name() const override { return "hash-repart"; }
  void prepare(const fsns::DirTree& tree, mds::PartitionMap& map) override;
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  Params params_;
  core::RebalanceTrigger trigger_;
};

/// CephFS-MDBalancer-style load fractions: every MDS above the mean busy
/// load exports a slice of subtrees whose combined measured load matches
/// its excess fraction, each slice landing on the currently least-loaded
/// importer. Proportional shedding instead of greedy-hottest-first.
class LoadFractionBalancer final : public cluster::Balancer {
 public:
  struct Params {
    double trigger_threshold = 0.10;
    double ewma_alpha = 1.0;
    int patience = 1;
    int max_migrations_per_epoch = 24;
    std::size_t max_candidates = 1024;
    std::uint64_t min_subtree_ops = 16;
    std::uint64_t max_inodes_per_epoch = 100'000;
  };

  explicit LoadFractionBalancer(Params params)
      : params_(params),
        trigger_(params.trigger_threshold, params.ewma_alpha,
                 params.patience) {}

  [[nodiscard]] std::string name() const override { return "load-frac"; }
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override;

 private:
  Params params_;
  core::RebalanceTrigger trigger_;
};

/// Live Origami, the §4.2 loop against the live service: when the raw
/// per-shard op imbalance reaches the trigger (Lunule, no smoothing), score
/// every uniform subtree's Table-1 features with the benefit model and move
/// those predicted above `min_predicted_benefit`, highest first, to the
/// least-loaded healthy shard unless the move would overshoot. A committed
/// subtree is frozen for the rest of the epoch. No model, no moves.
class LiveOrigamiPolicy final : public LivePolicy {
 public:
  struct Params {
    double trigger_threshold = 0.05;
    double min_predicted_benefit = 0.002;
    /// Moves attempted per epoch; a copy rolled back because its
    /// destination died still counts.
    int max_moves_per_epoch = 8;
    std::uint64_t min_subtree_ops = 16;
  };

  LiveOrigamiPolicy(std::shared_ptr<const ml::GbdtModel> model, Params params)
      : model_(std::move(model)), params_(params) {}
  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override;

 private:
  std::shared_ptr<const ml::GbdtModel> model_;
  Params params_;
};

/// Shared live-mode parameters of the baseline `LivePolicy` forms.
struct LiveBaselineParams {
  double trigger_threshold = 0.10;
  double ewma_alpha = 1.0;
  int patience = 1;
  int max_moves_per_epoch = 8;
  std::uint64_t min_subtree_ops = 16;
};

/// Live greedy spill: hottest healthy shard sheds its hottest uniform
/// subtrees to the least-loaded healthy shard, two-phase narrated.
class LiveGreedySpillPolicy final : public LivePolicy {
 public:
  explicit LiveGreedySpillPolicy(LiveBaselineParams params)
      : params_(params) {}
  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override;

 private:
  LiveBaselineParams params_;
  core::TriggerSmoother smoother_;
};

/// Live hash repartition: re-homes drifted *leaf* directories (no child
/// dirs, so the whole-subtree move is the directory itself) onto their
/// hash owner, hottest first.
class LiveHashRepartitionPolicy final : public LivePolicy {
 public:
  explicit LiveHashRepartitionPolicy(LiveBaselineParams params)
      : params_(params) {}
  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override;

 private:
  LiveBaselineParams params_;
  core::TriggerSmoother smoother_;
};

/// Live load fractions: every shard above the mean exports uniform
/// subtrees worth its excess load, proportional shedding as in the
/// simulator form. A moved subtree is frozen for the rest of the epoch, so
/// nothing nested in it is exported twice.
class LiveLoadFractionPolicy final : public LivePolicy {
 public:
  explicit LiveLoadFractionPolicy(LiveBaselineParams params)
      : params_(params) {}
  std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                         fs::LiveFaultContext& ctx) override;

 private:
  LiveBaselineParams params_;
  core::TriggerSmoother smoother_;
};

}  // namespace origami::policy
