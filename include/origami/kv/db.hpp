#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "origami/common/histogram.hpp"
#include "origami/common/status.hpp"
#include "origami/kv/memtable.hpp"
#include "origami/kv/sorted_run.hpp"
#include "origami/kv/wal.hpp"

namespace origami::kv {

/// How WAL records reach durable storage.
///  - kSync: every mutation's record is in the log before the call returns
///    (the log itself is only fsynced by the caller's policy; the store
///    treats an appended record as durable, matching the modeled journal).
///  - kAsync: mutations are acknowledged on memtable apply; their WAL
///    records accumulate in a bounded commit buffer that a *group commit*
///    writes and fsyncs in one batch (by size, age, or an explicit
///    `commit()`). A crash between ack and group commit loses the buffered
///    records — the acked-but-lost class the recovery model prices.
enum class CommitMode : std::uint8_t { kSync = 0, kAsync = 1 };

/// Tuning knobs for the fragmented-LSM store.
struct DbOptions {
  /// Memtable flush threshold.
  std::size_t memtable_bytes = 4u << 20;
  /// Max sorted runs per guard before the guard is compacted.
  std::size_t runs_per_guard = 4;
  /// Number of on-"disk" levels (level 0 is unguarded).
  int levels = 4;
  /// Fan-out: each level has ~`guard_fanout`× the guards of its parent.
  int guard_fanout = 4;
  int bloom_bits_per_key = 10;
  /// Optional WAL file path; empty keeps the log in memory.
  std::string wal_path;
  CommitMode commit_mode = CommitMode::kSync;
  /// Async mode: group-commit when this many records are buffered.
  std::size_t commit_batch = 64;
  /// Async mode: group-commit when the oldest buffered record is at least
  /// this old (wall clock, checked at every append). 0 disables the age
  /// trigger — batch size and explicit `commit()` calls drive flushes,
  /// which keeps deterministic drivers (the DES) in charge of timing.
  std::uint64_t commit_window_micros = 0;
};

/// Operation counters exposed for benchmarks and tests.
struct DbStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t scans = 0;
  std::uint64_t memtable_flushes = 0;
  std::uint64_t guard_compactions = 0;
  std::uint64_t bloom_negative = 0;  // lookups skipped by bloom filters
  std::uint64_t run_probes = 0;      // binary searches into sorted runs
  std::uint64_t entries_compacted = 0;

  // Group-commit pipeline (all zero in sync mode).
  std::uint64_t group_commits = 0;         // batched WAL flush passes
  std::uint64_t group_commit_records = 0;  // records made durable in batches
  std::uint64_t wal_fsyncs = 0;            // fsync calls issued (1 per batch)
  std::uint64_t commit_buffer_bytes_max = 0;  // high-water commit buffer size
  /// Measured wall-clock fsync latency (µs) on file-backed WALs — the real
  /// durability cost, not the modeled `t_fsync` constant. Empty for
  /// in-memory logs (nothing to fsync).
  common::LatencyHistogram fsync_micros;

  /// Accumulates `other` into this (counter sums; histogram merge).
  void merge(const DbStats& other) {
    puts += other.puts;
    gets += other.gets;
    deletes += other.deletes;
    scans += other.scans;
    memtable_flushes += other.memtable_flushes;
    guard_compactions += other.guard_compactions;
    bloom_negative += other.bloom_negative;
    run_probes += other.run_probes;
    entries_compacted += other.entries_compacted;
    group_commits += other.group_commits;
    group_commit_records += other.group_commit_records;
    wal_fsyncs += other.wal_fsyncs;
    commit_buffer_bytes_max =
        commit_buffer_bytes_max > other.commit_buffer_bytes_max
            ? commit_buffer_bytes_max
            : other.commit_buffer_bytes_max;
    fsync_micros.merge(other.fsync_micros);
  }
};

/// A PebblesDB-style fragmented log-structured merge store.
///
/// Layout: one mutable memtable + WAL; level 0 holds whole-memtable runs;
/// levels >= 1 are split into *guards* (key-space partitions picked by
/// sampling flushed keys). Unlike a classic LSM, a guard accumulates
/// multiple (possibly overlapping) runs and compaction merges runs *within*
/// one guard, appending fragments to the child guards of the next level —
/// this is the fragmented-LSM write-amplification trade described in the
/// PebblesDB paper (SOSP'17), which OrigamiFS uses as its inode store.
///
/// Point reads probe the memtable's hash index first (one probe, see
/// SkipList), then the runs newest-first per level, behind Bloom filters.
///
/// Thread safety: all public methods are safe to call concurrently. One
/// mutex serialises them all: writes, and reads too, which hold it for the
/// whole lookup or scan (a get copies the value out before releasing it).
class Db {
 public:
  explicit Db(DbOptions options = {});
  ~Db();
  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  common::Status put(std::string_view key, std::string_view value);
  common::Status del(std::string_view key);
  /// Returns the value, or kNotFound.
  common::Result<std::string> get(std::string_view key) const;
  /// Buffer-filling point read: on a hit, copies the value into `*value`
  /// (reusing its capacity) and returns true; on a miss returns false and
  /// leaves `*value` untouched. Counts as one get, like the overload above.
  bool get(std::string_view key, std::string* value) const;

  /// Visits live entries with key in [begin, end) in key order; return
  /// false from the callback to stop early.
  void scan(std::string_view begin, std::string_view end,
            const std::function<bool(std::string_view, std::string_view)>& fn) const;

  /// Visits all live entries whose key starts with `prefix`.
  void scan_prefix(std::string_view prefix,
                   const std::function<bool(std::string_view, std::string_view)>& fn) const;

  /// Forces the memtable into a level-0 run regardless of size.
  common::Status flush();

  /// Flushes and then compacts every guard until each holds at most one
  /// run, pushing data toward the bottom level (major compaction).
  common::Status compact_all();

  /// Per-level structure snapshot for introspection and tests.
  struct LevelInfo {
    std::size_t guards = 0;
    std::size_t runs = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] std::vector<LevelInfo> level_info() const;

  /// Snapshot iterator over live entries in key order. The snapshot is
  /// taken at construction (O(n)); subsequent writes are not visible.
  class Iterator {
   public:
    [[nodiscard]] bool valid() const noexcept { return pos_ < items_.size(); }
    [[nodiscard]] std::string_view key() const { return items_[pos_].first; }
    [[nodiscard]] std::string_view value() const { return items_[pos_].second; }
    void next() noexcept { ++pos_; }
    /// Repositions to the first key >= `target`.
    void seek(std::string_view target);

   private:
    friend class Db;
    std::vector<std::pair<std::string, std::string>> items_;
    std::size_t pos_ = 0;
  };
  [[nodiscard]] Iterator new_iterator() const;

  /// Number of live (non-tombstone) entries; O(n) — for tests/metrics.
  [[nodiscard]] std::size_t count_live() const;

  [[nodiscard]] DbStats stats() const;
  [[nodiscard]] const DbOptions& options() const noexcept { return options_; }

  // ---- Async group commit (CommitMode::kAsync) -------------------------
  //
  // Writes are acknowledged on memtable apply; their WAL records wait in a
  // bounded commit buffer. `commit()` (or the batch/age triggers) writes
  // the whole buffer to the log in one append and fsyncs it, advancing the
  // durable watermark. Reads stay memtable-authoritative — a get/scan
  // racing an unflushed mutation sees the acked value — while
  // `durability_of` reports whether an entry's record has hit the log yet.

  /// Group-commits the buffered WAL records now (no-op when the buffer is
  /// empty or in sync mode). The fsync latency is *measured* on file-backed
  /// logs and recorded into `DbStats::fsync_micros`.
  common::Status commit();

  /// Records acked but still waiting for their group commit.
  [[nodiscard]] std::size_t pending_commit_records() const;
  /// Highest seqno assigned so far (0 before the first write).
  [[nodiscard]] std::uint64_t last_seqno() const;
  /// Highest seqno known durable (in the synced WAL or folded into a run).
  [[nodiscard]] std::uint64_t durable_seqno() const;

  /// Per-entry durability classification for the acked view.
  enum class Durability : std::uint8_t { kNotFound = 0, kDurable, kPending };
  [[nodiscard]] Durability durability_of(std::string_view key) const;

  /// One acked write whose WAL record was still buffered when a crash hit.
  struct LostWrite {
    std::uint64_t seqno = 0;
    std::string key;
    bool tombstone = false;
  };
  /// What a simulated crash swept away, for the recovery ledger: exactly
  /// the acked-but-lost records (never silent), the durable watermark the
  /// recovered store must reproduce, and whether the WAL tail was torn.
  struct LossReport {
    std::vector<LostWrite> acked_lost;
    std::uint64_t durable_seqno = 0;      ///< watermark at the crash instant
    std::uint64_t wal_durable_seqno = 0;  ///< highest seqno in the synced WAL
    bool wal_tail_torn = false;
  };

  /// Crash-injection hook: drops the commit buffer (volatile state dies
  /// with the process — the memtable empties too) and optionally appends
  /// garbage modeling a write torn mid-fsync. Durable state (sorted runs,
  /// synced WAL prefix) survives; call `recover()` to replay it.
  LossReport simulate_crash(bool tear_wal_tail = false);

  /// Rebuilds the memtable from the WAL (truncating any torn tail). Called
  /// after `simulate_crash`, or on a fresh Db constructed over an existing
  /// WAL file. `replay`, when non-null, reports the surviving prefix:
  /// `max_seqno` must equal the pre-crash `wal_durable_seqno` — the exact
  /// durable-prefix contract invariant I7 audits on real bytes.
  common::Status recover(WalReplayStats* replay = nullptr);

  /// Persists the full store (memtable snapshot + every guard's runs,
  /// preserving the fragmented-LSM structure) to a single checksummed
  /// checkpoint file.
  common::Status checkpoint(const std::string& path) const;

  /// Replaces this store's contents with a checkpoint written by
  /// `checkpoint()`. The store should be freshly constructed.
  common::Status restore(const std::string& path);

 private:
  struct Guard;
  struct Level;

  void maybe_flush_locked();
  void flush_locked();
  /// Applies the batch/age group-commit triggers (async mode).
  void maybe_group_commit_locked();
  common::Status commit_locked();
  void place_into_level_locked(int level_index,
                               std::vector<std::pair<std::string, Entry>> entries);
  void maybe_compact_guard_locked(int level_index, std::size_t guard_index);
  [[nodiscard]] std::size_t guard_for_locked(const Level& level,
                                             std::string_view key) const;
  /// Newest entry for `key` (possibly a tombstone) or nullptr; caller
  /// holds mutex_.
  [[nodiscard]] const Entry* lookup(std::string_view key) const;

  DbOptions options_;
  mutable std::mutex mutex_;
  MemTable mem_;
  WriteAheadLog wal_;
  std::vector<Level> levels_;
  std::uint64_t next_seqno_ = 1;
  mutable DbStats stats_;

  /// Async commit buffer: framed WAL records not yet written+synced, and
  /// the metadata needed to report them if a crash sweeps them away.
  struct PendingRecord {
    std::uint64_t seqno = 0;
    std::string key;
    bool tombstone = false;
  };
  std::string commit_buf_;
  std::vector<PendingRecord> pending_;
  std::chrono::steady_clock::time_point oldest_pending_at_{};
  /// Highest seqno known durable (synced WAL or sorted run).
  std::uint64_t durable_seqno_ = 0;
  /// Highest seqno currently in the synced WAL (0 after a memtable flush
  /// resets the log) — what a crash-replay must reproduce exactly.
  std::uint64_t wal_tail_seqno_ = 0;
};

}  // namespace origami::kv
