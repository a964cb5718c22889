#include "origami/kv/db.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>

#include "origami/common/hash.hpp"

namespace origami::kv {

/// A key-space partition within a level: `lower_bound` is inclusive; the
/// guard covers keys up to the next guard's lower bound. Runs are appended
/// in age order (back = newest).
struct Db::Guard {
  std::string lower_bound;
  std::vector<SortedRunPtr> runs;
  std::size_t entry_count() const {
    std::size_t n = 0;
    for (const auto& r : runs) n += r->entry_count();
    return n;
  }
};

struct Db::Level {
  std::vector<Guard> guards;  // sorted by lower_bound; guards[0].lower_bound == ""
};

Db::Db(DbOptions options)
    : options_(std::move(options)),
      wal_(options_.wal_path.empty() ? WriteAheadLog{}
                                     : WriteAheadLog{options_.wal_path}) {
  options_.levels = std::max(1, options_.levels);
  options_.guard_fanout = std::max(2, options_.guard_fanout);
  options_.runs_per_guard = std::max<std::size_t>(1, options_.runs_per_guard);
  levels_.resize(static_cast<std::size_t>(options_.levels));
  for (auto& level : levels_) {
    level.guards.push_back(Guard{});  // catch-all guard with "" lower bound
  }
}

Db::~Db() = default;

common::Status Db::put(std::string_view key, std::string_view value) {
  std::lock_guard lock(mutex_);
  ++stats_.puts;
  const std::uint64_t seqno = next_seqno_++;
  if (options_.commit_mode == CommitMode::kAsync) {
    if (pending_.empty()) oldest_pending_at_ = std::chrono::steady_clock::now();
    WriteAheadLog::encode(commit_buf_, WalRecordType::kPut, key, value, seqno);
    pending_.push_back({seqno, std::string(key), false});
    stats_.commit_buffer_bytes_max =
        std::max<std::uint64_t>(stats_.commit_buffer_bytes_max,
                                commit_buf_.size());
    mem_.put(key, value, seqno);  // acked here; durability comes later
    maybe_group_commit_locked();
  } else {
    if (auto s = wal_.append(WalRecordType::kPut, key, value, seqno);
        !s.is_ok()) {
      return s;
    }
    durable_seqno_ = seqno;
    wal_tail_seqno_ = seqno;
    mem_.put(key, value, seqno);
  }
  maybe_flush_locked();
  return common::Status::ok();
}

common::Status Db::del(std::string_view key) {
  std::lock_guard lock(mutex_);
  ++stats_.deletes;
  const std::uint64_t seqno = next_seqno_++;
  if (options_.commit_mode == CommitMode::kAsync) {
    if (pending_.empty()) oldest_pending_at_ = std::chrono::steady_clock::now();
    WriteAheadLog::encode(commit_buf_, WalRecordType::kDelete, key, {}, seqno);
    pending_.push_back({seqno, std::string(key), true});
    stats_.commit_buffer_bytes_max =
        std::max<std::uint64_t>(stats_.commit_buffer_bytes_max,
                                commit_buf_.size());
    mem_.del(key, seqno);
    maybe_group_commit_locked();
  } else {
    if (auto s = wal_.append(WalRecordType::kDelete, key, {}, seqno);
        !s.is_ok()) {
      return s;
    }
    durable_seqno_ = seqno;
    wal_tail_seqno_ = seqno;
    mem_.del(key, seqno);
  }
  maybe_flush_locked();
  return common::Status::ok();
}

void Db::maybe_group_commit_locked() {
  if (pending_.empty()) return;
  if (pending_.size() >= options_.commit_batch) {
    (void)commit_locked();
    return;
  }
  if (options_.commit_window_micros > 0) {
    const auto age = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - oldest_pending_at_)
                         .count();
    if (age >= 0 &&
        static_cast<std::uint64_t>(age) >= options_.commit_window_micros) {
      (void)commit_locked();
    }
  }
}

common::Status Db::commit_locked() {
  if (pending_.empty()) return common::Status::ok();
  if (auto s = wal_.append_encoded(commit_buf_); !s.is_ok()) return s;
  std::uint64_t micros = 0;
  if (auto s = wal_.sync(&micros); !s.is_ok()) return s;
  ++stats_.wal_fsyncs;
  ++stats_.group_commits;
  stats_.group_commit_records += pending_.size();
  if (wal_.file_backed()) {
    stats_.fsync_micros.add(std::max<std::uint64_t>(1, micros));
  }
  durable_seqno_ = std::max(durable_seqno_, pending_.back().seqno);
  wal_tail_seqno_ = std::max(wal_tail_seqno_, pending_.back().seqno);
  pending_.clear();
  commit_buf_.clear();
  return common::Status::ok();
}

common::Status Db::commit() {
  std::lock_guard lock(mutex_);
  return commit_locked();
}

std::size_t Db::pending_commit_records() const {
  std::lock_guard lock(mutex_);
  return pending_.size();
}

std::uint64_t Db::last_seqno() const {
  std::lock_guard lock(mutex_);
  return next_seqno_ - 1;
}

std::uint64_t Db::durable_seqno() const {
  std::lock_guard lock(mutex_);
  return durable_seqno_;
}

Db::Durability Db::durability_of(std::string_view key) const {
  std::lock_guard lock(mutex_);
  const Entry* e = lookup(key);
  if (e == nullptr || e->tombstone) return Durability::kNotFound;
  return e->seqno <= durable_seqno_ ? Durability::kDurable
                                    : Durability::kPending;
}

Db::LossReport Db::simulate_crash(bool tear_wal_tail) {
  std::lock_guard lock(mutex_);
  LossReport report;
  report.durable_seqno = durable_seqno_;
  report.wal_durable_seqno = wal_tail_seqno_;
  report.acked_lost.reserve(pending_.size());
  for (PendingRecord& p : pending_) {
    report.acked_lost.push_back({p.seqno, std::move(p.key), p.tombstone});
  }
  pending_.clear();
  commit_buf_.clear();
  // Volatile state dies with the process; the durable prefix (sorted runs
  // + synced WAL) survives and recover() rebuilds the memtable from it.
  mem_ = MemTable{};
  if (tear_wal_tail) {
    // A record the writer crashed inside: garbage that decodes as neither a
    // valid header nor a checksummed body, so replay truncates it.
    report.wal_tail_torn = true;
    wal_.append_raw(std::string(24, '\x7f'));
  }
  return report;
}

const Entry* Db::lookup(std::string_view key) const {
  // Caller holds mutex_; the returned entry lives in the memtable or in a
  // run the levels hold, so it stays valid until the lock is released.
  if (const Entry* e = mem_.get(key)) return e;
  for (const auto& level : levels_) {
    const std::size_t gi = guard_for_locked(level, key);
    const Guard& guard = level.guards[gi];
    for (auto it = guard.runs.rbegin(); it != guard.runs.rend(); ++it) {
      ++stats_.run_probes;
      if (const Entry* e = (*it)->get(key)) return e;
      ++stats_.bloom_negative;
    }
  }
  return nullptr;
}

bool Db::get(std::string_view key, std::string* value) const {
  std::lock_guard lock(mutex_);
  ++stats_.gets;
  const Entry* e = lookup(key);
  if (e == nullptr || e->tombstone) return false;
  value->assign(e->value);
  return true;
}

common::Result<std::string> Db::get(std::string_view key) const {
  std::string value;
  if (!get(key, &value)) return common::Status::not_found(std::string(key));
  return value;
}

void Db::scan(std::string_view begin, std::string_view end,
              const std::function<bool(std::string_view, std::string_view)>& fn) const {
  std::lock_guard lock(mutex_);
  ++stats_.scans;
  // Overlay from oldest to newest so later writes shadow earlier ones.
  std::map<std::string, Entry, std::less<>> merged;
  auto absorb = [&](std::string_view k, const Entry& e) {
    auto [it, inserted] = merged.emplace(std::string(k), e);
    if (!inserted && e.seqno > it->second.seqno) it->second = e;
    return true;
  };
  for (auto level = levels_.rbegin(); level != levels_.rend(); ++level) {
    for (const auto& guard : level->guards) {
      for (const auto& run : guard.runs) run->scan(begin, end, absorb);
    }
  }
  mem_.scan(begin, end, absorb);
  for (const auto& [k, e] : merged) {
    if (e.tombstone) continue;
    if (!fn(k, e.value)) return;
  }
}

void Db::scan_prefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, std::string_view)>& fn) const {
  std::string end(prefix);
  // Smallest string greater than every prefixed key: bump the last byte
  // that is not 0xff (dropping trailing 0xff bytes).
  while (!end.empty() && static_cast<unsigned char>(end.back()) == 0xff) {
    end.pop_back();
  }
  if (!end.empty()) {
    end.back() = static_cast<char>(static_cast<unsigned char>(end.back()) + 1);
  }
  scan(prefix, end, fn);
}

common::Status Db::flush() {
  std::lock_guard lock(mutex_);
  flush_locked();
  return common::Status::ok();
}

common::Status Db::compact_all() {
  std::lock_guard lock(mutex_);
  flush_locked();
  // Repeatedly merge multi-run guards; place_into_level cascades, so a few
  // sweeps settle the whole tree.
  for (int sweep = 0; sweep < options_.levels + 1; ++sweep) {
    bool changed = false;
    for (int li = 0; li < options_.levels; ++li) {
      Level& level = levels_[static_cast<std::size_t>(li)];
      for (std::size_t g = 0; g < level.guards.size(); ++g) {
        if (level.guards[g].runs.size() <= 1) continue;
        ++stats_.guard_compactions;
        std::vector<SortedRunPtr> newest_first(level.guards[g].runs.rbegin(),
                                               level.guards[g].runs.rend());
        const bool bottom = li + 1 >= options_.levels;
        auto merged = merge_runs(newest_first, /*drop_tombstones=*/bottom);
        stats_.entries_compacted += merged.size();
        level.guards[g].runs.clear();
        if (bottom) {
          if (!merged.empty()) {
            level.guards[g].runs.push_back(std::make_shared<SortedRun>(
                std::move(merged), options_.bloom_bits_per_key));
          }
        } else {
          place_into_level_locked(li + 1, std::move(merged));
        }
        changed = true;
      }
    }
    if (!changed) break;
  }
  return common::Status::ok();
}

std::vector<Db::LevelInfo> Db::level_info() const {
  std::lock_guard lock(mutex_);
  std::vector<LevelInfo> out;
  out.reserve(levels_.size());
  for (const Level& level : levels_) {
    LevelInfo info;
    info.guards = level.guards.size();
    for (const Guard& guard : level.guards) {
      info.runs += guard.runs.size();
      for (const auto& run : guard.runs) {
        info.entries += run->entry_count();
        info.bytes += run->approximate_bytes();
      }
    }
    out.push_back(info);
  }
  return out;
}

Db::Iterator Db::new_iterator() const {
  Iterator it;
  scan({}, {}, [&](std::string_view k, std::string_view v) {
    it.items_.emplace_back(std::string(k), std::string(v));
    return true;
  });
  return it;
}

void Db::Iterator::seek(std::string_view target) {
  pos_ = static_cast<std::size_t>(
      std::lower_bound(items_.begin(), items_.end(), target,
                       [](const auto& pair, std::string_view t) {
                         return pair.first < t;
                       }) -
      items_.begin());
}

void Db::maybe_flush_locked() {
  if (mem_.approximate_bytes() >= options_.memtable_bytes) flush_locked();
}

void Db::flush_locked() {
  if (mem_.empty()) return;
  // Async mode: the buffered records are about to become durable via the
  // sorted run, but resetting the WAL without committing them first would
  // skip their fsync — the run write below IS their durability point, so
  // group-commit the buffer to keep the watermark and loss accounting
  // honest (a crash after this flush must lose nothing).
  if (options_.commit_mode == CommitMode::kAsync && !pending_.empty()) {
    (void)commit_locked();
  }
  ++stats_.memtable_flushes;
  std::vector<std::pair<std::string, Entry>> entries = mem_.snapshot();
  mem_ = MemTable{};
  wal_.reset();
  wal_tail_seqno_ = 0;  // the log is empty; runs now carry the entries
  place_into_level_locked(0, std::move(entries));
}

std::size_t Db::guard_for_locked(const Level& level, std::string_view key) const {
  // Last guard whose lower_bound <= key. guards[0] has "" so it always matches.
  auto it = std::upper_bound(
      level.guards.begin(), level.guards.end(), key,
      [](std::string_view k, const Guard& g) { return k < g.lower_bound; });
  return static_cast<std::size_t>(std::distance(level.guards.begin(), it)) - 1;
}

void Db::place_into_level_locked(
    int level_index, std::vector<std::pair<std::string, Entry>> entries) {
  if (entries.empty()) return;
  Level& level = levels_[static_cast<std::size_t>(level_index)];

  // Lazily materialise guards for this level the first time data arrives,
  // sampling boundaries from the incoming (sorted) entries — the PebblesDB
  // guard-selection idea, minus the probabilistic skip-list sampling.
  if (level_index > 0 && level.guards.size() == 1 && level.guards[0].runs.empty()) {
    std::size_t target = 1;
    for (int i = 0; i < level_index; ++i) {
      target *= static_cast<std::size_t>(options_.guard_fanout);
    }
    target = std::min(target, std::max<std::size_t>(1, entries.size() / 2));
    for (std::size_t g = 1; g < target; ++g) {
      Guard guard;
      guard.lower_bound = entries[g * entries.size() / target].first;
      if (guard.lower_bound != level.guards.back().lower_bound) {
        level.guards.push_back(std::move(guard));
      }
    }
  }

  // Split entries at guard boundaries; append one run per non-empty slice.
  std::vector<std::size_t> touched;
  std::size_t begin = 0;
  for (std::size_t g = 0; g < level.guards.size() && begin < entries.size(); ++g) {
    std::size_t end = entries.size();
    if (g + 1 < level.guards.size()) {
      const std::string& next_bound = level.guards[g + 1].lower_bound;
      auto it = std::lower_bound(
          entries.begin() + static_cast<std::ptrdiff_t>(begin), entries.end(),
          next_bound, [](const auto& pair, const std::string& k) {
            return pair.first < k;
          });
      end = static_cast<std::size_t>(std::distance(entries.begin(), it));
    }
    if (end > begin) {
      std::vector<std::pair<std::string, Entry>> slice(
          std::make_move_iterator(entries.begin() + static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(entries.begin() + static_cast<std::ptrdiff_t>(end)));
      level.guards[g].runs.push_back(
          std::make_shared<SortedRun>(std::move(slice), options_.bloom_bits_per_key));
      touched.push_back(g);
    }
    begin = end;
  }
  for (std::size_t g : touched) maybe_compact_guard_locked(level_index, g);
}

void Db::maybe_compact_guard_locked(int level_index, std::size_t guard_index) {
  Level& level = levels_[static_cast<std::size_t>(level_index)];
  Guard& guard = level.guards[guard_index];
  if (guard.runs.size() <= options_.runs_per_guard) return;
  ++stats_.guard_compactions;

  std::vector<SortedRunPtr> newest_first(guard.runs.rbegin(), guard.runs.rend());
  const bool bottom = level_index + 1 >= options_.levels;
  auto merged = merge_runs(newest_first, /*drop_tombstones=*/bottom);
  stats_.entries_compacted += merged.size();
  guard.runs.clear();
  if (bottom) {
    if (!merged.empty()) {
      guard.runs.push_back(std::make_shared<SortedRun>(
          std::move(merged), options_.bloom_bits_per_key));
    }
  } else {
    place_into_level_locked(level_index + 1, std::move(merged));
  }
}

std::size_t Db::count_live() const {
  std::size_t n = 0;
  scan({}, {}, [&](std::string_view, std::string_view) {
    ++n;
    return true;
  });
  return n;
}

DbStats Db::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

namespace {

// Checkpoint encoding helpers: little-endian PODs appended to a buffer that
// is checksummed as a whole (trailer = fnv1a of everything before it).
constexpr std::uint32_t kCheckpointMagic = 0x4f524744;  // "ORGD"

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}
void put_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}
void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len) || pos_ + len > data_.size()) return false;
    s.assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

void put_entries(std::string& out,
                 const std::vector<std::pair<std::string, Entry>>& entries) {
  put_u64(out, entries.size());
  for (const auto& [key, e] : entries) {
    put_str(out, key);
    put_str(out, e.value);
    put_u64(out, e.seqno);
    out.push_back(e.tombstone ? 1 : 0);
  }
}

bool read_entries(Reader& in,
                  std::vector<std::pair<std::string, Entry>>& entries) {
  std::uint64_t n = 0;
  if (!in.u64(n)) return false;
  entries.clear();
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    Entry e;
    std::uint8_t tomb = 0;
    if (!in.str(key) || !in.str(e.value) || !in.u64(e.seqno) || !in.u8(tomb)) {
      return false;
    }
    e.tombstone = tomb != 0;
    entries.emplace_back(std::move(key), std::move(e));
  }
  return true;
}

}  // namespace

common::Status Db::checkpoint(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::string out;
  put_u32(out, kCheckpointMagic);
  put_u32(out, 1);  // version
  put_u64(out, next_seqno_);

  put_entries(out, mem_.snapshot());

  put_u32(out, static_cast<std::uint32_t>(levels_.size()));
  for (const Level& level : levels_) {
    put_u32(out, static_cast<std::uint32_t>(level.guards.size()));
    for (const Guard& guard : level.guards) {
      put_str(out, guard.lower_bound);
      put_u32(out, static_cast<std::uint32_t>(guard.runs.size()));
      for (const SortedRunPtr& run : guard.runs) {
        put_entries(out, run->entries());
      }
    }
  }
  put_u64(out, common::fnv1a(out));  // trailer checksum

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return common::Status::unavailable("cannot open " + path);
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) return common::Status::unavailable("write failed: " + path);
  return common::Status::ok();
}

common::Status Db::recover(WalReplayStats* replay) {
  std::lock_guard lock(mutex_);
  WalReplayStats local;
  auto status = wal_.replay(
      [&](WalRecordType type, std::string_view key, std::string_view value,
          std::uint64_t seqno) {
        next_seqno_ = std::max(next_seqno_, seqno + 1);
        if (type == WalRecordType::kPut) {
          mem_.put(key, value, seqno);
        } else {
          mem_.del(key, seqno);
        }
      },
      &local);
  // The replayed prefix is exactly what the synced log held: anything the
  // commit buffer lost at the crash was never appended, and a torn tail
  // was truncated above, so the watermark is the max replayed seqno.
  wal_tail_seqno_ = local.max_seqno;
  durable_seqno_ = std::max(durable_seqno_, local.max_seqno);
  if (replay != nullptr) *replay = local;
  return status;
}

common::Status Db::restore(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return common::Status::not_found("no checkpoint at " + path);
  std::string data(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>{});
  if (data.size() < 8) return common::Status::corruption("checkpoint truncated");

  // Trailer checksum covers everything before it.
  std::uint64_t stored = 0;
  std::memcpy(&stored, data.data() + data.size() - 8, 8);
  const std::string_view body(data.data(), data.size() - 8);
  if (common::fnv1a(body) != stored) {
    return common::Status::corruption("checkpoint checksum mismatch: " + path);
  }

  Reader in(body);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t seqno = 0;
  if (!in.u32(magic) || magic != kCheckpointMagic || !in.u32(version) ||
      version != 1 || !in.u64(seqno)) {
    return common::Status::corruption("bad checkpoint header: " + path);
  }

  std::vector<std::pair<std::string, Entry>> mem_entries;
  if (!read_entries(in, mem_entries)) {
    return common::Status::corruption("bad memtable section: " + path);
  }

  std::uint32_t level_count = 0;
  if (!in.u32(level_count) || level_count == 0 || level_count > 16) {
    return common::Status::corruption("bad level count: " + path);
  }
  std::vector<Level> levels(level_count);
  for (Level& level : levels) {
    std::uint32_t guard_count = 0;
    if (!in.u32(guard_count) || guard_count == 0) {
      return common::Status::corruption("bad guard count: " + path);
    }
    level.guards.resize(guard_count);
    for (Guard& guard : level.guards) {
      std::uint32_t run_count = 0;
      if (!in.str(guard.lower_bound) || !in.u32(run_count)) {
        return common::Status::corruption("bad guard header: " + path);
      }
      for (std::uint32_t r = 0; r < run_count; ++r) {
        std::vector<std::pair<std::string, Entry>> entries;
        if (!read_entries(in, entries)) {
          return common::Status::corruption("bad run section: " + path);
        }
        guard.runs.push_back(std::make_shared<SortedRun>(
            std::move(entries), options_.bloom_bits_per_key));
      }
    }
  }

  std::lock_guard lock(mutex_);
  next_seqno_ = seqno;
  levels_ = std::move(levels);
  mem_ = MemTable{};
  for (const auto& [key, e] : mem_entries) {
    if (e.tombstone) {
      mem_.del(key, e.seqno);
    } else {
      mem_.put(key, e.value, e.seqno);
    }
  }
  return common::Status::ok();
}

}  // namespace origami::kv
