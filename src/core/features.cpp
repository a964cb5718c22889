#include "origami/core/features.hpp"

#include <algorithm>

#include "origami/common/thread_pool.hpp"

namespace origami::core {

std::vector<std::string> feature_name_vector() {
  return {kFeatureNames.begin(), kFeatureNames.end()};
}

FeatureExtractor::FeatureExtractor(const fsns::DirTree& tree,
                                   const SubtreeView& view)
    : tree_(&tree), view_(&view) {
  const std::vector<fsns::NodeId> dirs = tree.directories();

  // Per-chunk partial maxima merged in chunk order. Chunk boundaries depend
  // only on the directory count, and max over doubles is order-independent,
  // so the normalising constants are bit-identical at any thread count.
  struct Maxes {
    double depth = 0.0;
    double files = 0.0;
    double sub_dirs = 0.0;
  };
  constexpr std::size_t kGrain = 2048;
  const std::size_t chunks = common::chunk_count(dirs.size(), kGrain);
  std::vector<Maxes> parts(std::max<std::size_t>(1, chunks));
  common::parallel_for_chunks(
      common::analysis_pool(), dirs.size(), kGrain,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        Maxes m;
        for (std::size_t i = begin; i < end; ++i) {
          const fsns::NodeId d = dirs[i];
          m.depth = std::max(m.depth, static_cast<double>(tree.depth(d)));
          m.files = std::max(m.files, static_cast<double>(view.sub_files(d)));
          m.sub_dirs =
              std::max(m.sub_dirs, static_cast<double>(view.sub_dirs(d)));
        }
        parts[chunk] = m;
      });
  for (const Maxes& m : parts) {
    max_depth_ = std::max(max_depth_, m.depth);
    max_sub_files_ = std::max(max_sub_files_, m.files);
    max_sub_dirs_ = std::max(max_sub_dirs_, m.sub_dirs);
  }
  total_access_ = std::max(1.0, static_cast<double>(view.total_ops()));
}

void FeatureExtractor::extract(fsns::NodeId dir, std::span<float> out) const {
  const double reads = static_cast<double>(view_->reads(dir));
  const double writes = static_cast<double>(view_->writes(dir));
  const double files = static_cast<double>(view_->sub_files(dir));
  const double dirs = static_cast<double>(view_->sub_dirs(dir));
  out[0] = static_cast<float>(tree_->depth(dir) / max_depth_);
  out[1] = static_cast<float>(files / max_sub_files_);
  out[2] = static_cast<float>(dirs / max_sub_dirs_);
  out[3] = static_cast<float>(reads / total_access_);
  out[4] = static_cast<float>(writes / total_access_);
  out[5] = static_cast<float>(writes / std::max(1.0, reads + writes));
  out[6] = static_cast<float>((dirs + 1.0) / (files + 1.0));
}

std::vector<std::array<float, kFeatureCount>> FeatureExtractor::extract_batch(
    std::span<const fsns::NodeId> dirs) const {
  std::vector<std::array<float, kFeatureCount>> rows(dirs.size());
  common::parallel_for(
      common::analysis_pool(), dirs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          extract(dirs[i], rows[i]);
        }
      },
      /*min_chunk=*/256);
  return rows;
}

std::vector<double> FeatureExtractor::score_batch(
    std::span<const fsns::NodeId> dirs,
    const std::function<double(std::span<const float>)>& predict) const {
  std::vector<double> scores(dirs.size());
  // A GBDT scores a row in microseconds, so an epoch's few hundred
  // candidates are already worth spreading over the pool.
  common::parallel_for(
      common::analysis_pool(), dirs.size(),
      [&](std::size_t begin, std::size_t end) {
        std::array<float, kFeatureCount> row{};
        for (std::size_t i = begin; i < end; ++i) {
          extract(dirs[i], row);
          scores[i] = predict(row);
        }
      },
      /*min_chunk=*/64);
  return scores;
}

}  // namespace origami::core
