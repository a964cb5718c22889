#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "origami/kv/skiplist.hpp"

namespace origami::kv {

/// A versioned entry. Deletes are recorded as tombstones so they shadow
/// older values in deeper runs until compaction drops them.
struct Entry {
  std::string value;
  std::uint64_t seqno = 0;
  bool tombstone = false;
};

/// In-memory sorted write buffer backed by a skip list (the LevelDB/
/// PebblesDB memtable structure) whose hash index makes point reads and the
/// existence probe of put/del one probe each. Single-writer / multi-reader
/// callers must synchronise externally (the DB object holds the lock).
class MemTable {
 public:
  /// Inserts or overwrites; returns the net byte delta for size accounting.
  std::int64_t put(std::string_view key, std::string_view value,
                   std::uint64_t seqno);
  /// Records a tombstone; returns the net byte delta.
  std::int64_t del(std::string_view key, std::uint64_t seqno);

  /// The entry (possibly a tombstone) stored for `key`, or nullptr. The
  /// pointer stays valid, and sees later overwrites, until the memtable is
  /// dropped.
  [[nodiscard]] const Entry* get(std::string_view key) const;

  /// Visits entries with keys in [begin, end) in key order; return false
  /// from the callback to stop early.
  void scan(std::string_view begin, std::string_view end,
            const std::function<bool(std::string_view, const Entry&)>& fn) const;

  [[nodiscard]] std::size_t approximate_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return table_.size(); }
  [[nodiscard]] bool empty() const noexcept { return table_.empty(); }

  /// Key-ordered copy of the contents, used to build a sorted run on flush.
  [[nodiscard]] std::vector<std::pair<std::string, Entry>> snapshot() const;

 private:
  SkipList<Entry> table_;
  std::size_t bytes_ = 0;
};

}  // namespace origami::kv
