#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "origami/kv/bloom.hpp"
#include "origami/kv/memtable.hpp"

namespace origami::kv {

/// An immutable sorted run (the in-memory analogue of an SSTable): sorted
/// key/entry pairs plus a Bloom filter for negative lookups. Runs are
/// shared_ptr-held so compaction can retire them while readers finish.
class SortedRun {
 public:
  /// `entries` must be sorted by key with unique keys.
  explicit SortedRun(std::vector<std::pair<std::string, Entry>> entries,
                     int bloom_bits_per_key = 10);

  /// The entry (possibly a tombstone) stored for `key`, or nullptr; valid
  /// while the run is alive.
  [[nodiscard]] const Entry* get(std::string_view key) const;

  /// Visits entries with keys in [begin, end); return false to stop.
  void scan(std::string_view begin, std::string_view end,
            const std::function<bool(std::string_view, const Entry&)>& fn) const;

  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t approximate_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string_view min_key() const noexcept;
  [[nodiscard]] std::string_view max_key() const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Entry>>& entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, Entry>> entries_;
  BloomFilter bloom_;
  std::size_t bytes_ = 0;
};

using SortedRunPtr = std::shared_ptr<const SortedRun>;

/// K-way merges runs (newest first wins per key). Tombstones are retained
/// unless `drop_tombstones` (bottom-level compaction).
std::vector<std::pair<std::string, Entry>> merge_runs(
    const std::vector<SortedRunPtr>& newest_first, bool drop_tombstones);

}  // namespace origami::kv
