// Unit + property tests for the fragmented-LSM key-value store
// (origami::kv): bloom filters, memtable, sorted runs, WAL, full Db.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/kv/bloom.hpp"
#include "origami/kv/db.hpp"
#include "origami/kv/memtable.hpp"
#include "origami/kv/sorted_run.hpp"
#include "origami/kv/wal.hpp"

namespace origami::kv {
namespace {

// ----------------------------------------------------------------- Bloom --

TEST(Bloom, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) bloom.add("key" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.may_contain("key" + std::to_string(i)));
  }
}

TEST(Bloom, LowFalsePositiveRate) {
  BloomFilter bloom(10000, 10);
  for (int i = 0; i < 10000; ++i) bloom.add("member" + std::to_string(i));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.may_contain("absent" + std::to_string(i))) ++fp;
  }
  // 10 bits/key gives ~1% FPR; allow generous slack.
  EXPECT_LT(fp, 400);
}

TEST(Bloom, EmptyMatchesNothing) {
  BloomFilter bloom(0, 10);
  EXPECT_FALSE(bloom.may_contain("anything"));
}

// -------------------------------------------------------------- MemTable --

TEST(MemTable, PutGetOverwrite) {
  MemTable mt;
  mt.put("a", "1", 1);
  mt.put("b", "2", 2);
  auto e = mt.get("a");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value, "1");
  mt.put("a", "updated", 3);
  e = mt.get("a");
  EXPECT_EQ(e->value, "updated");
  EXPECT_EQ(e->seqno, 3u);
  EXPECT_EQ(mt.entry_count(), 2u);
}

TEST(MemTable, TombstoneShadowsValue) {
  MemTable mt;
  mt.put("a", "1", 1);
  mt.del("a", 2);
  auto e = mt.get("a");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->tombstone);
}

TEST(MemTable, ScanRangeOrdered) {
  MemTable mt;
  mt.put("c", "3", 1);
  mt.put("a", "1", 2);
  mt.put("b", "2", 3);
  mt.put("d", "4", 4);
  std::string seen;
  mt.scan("a", "d", [&](std::string_view k, const Entry&) {
    seen += k;
    return true;
  });
  EXPECT_EQ(seen, "abc");
}

TEST(MemTable, ByteAccountingGrowsAndTracksOverwrite) {
  MemTable mt;
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  mt.put("key", "0123456789", 1);
  const auto bytes = mt.approximate_bytes();
  EXPECT_GT(bytes, 10u);
  mt.put("key", "01234", 2);
  EXPECT_EQ(mt.approximate_bytes(), bytes - 5);
}

// ------------------------------------------------------------- SortedRun --

std::vector<std::pair<std::string, Entry>> make_entries(
    std::initializer_list<std::pair<const char*, const char*>> kvs,
    std::uint64_t seq_start = 1) {
  std::vector<std::pair<std::string, Entry>> out;
  std::uint64_t seq = seq_start;
  for (const auto& [k, v] : kvs) {
    out.emplace_back(k, Entry{v, seq++, false});
  }
  return out;
}

TEST(SortedRun, GetHitAndMiss) {
  SortedRun run(make_entries({{"a", "1"}, {"c", "3"}, {"e", "5"}}));
  ASSERT_NE(run.get("c"), nullptr);
  EXPECT_EQ(run.get("c")->value, "3");
  EXPECT_EQ(run.get("b"), nullptr);
  EXPECT_EQ(run.get("z"), nullptr);
  EXPECT_EQ(run.min_key(), "a");
  EXPECT_EQ(run.max_key(), "e");
}

TEST(SortedRun, ScanHonorsBounds) {
  SortedRun run(make_entries({{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}}));
  std::string seen;
  run.scan("b", "d", [&](std::string_view k, const Entry&) {
    seen += k;
    return true;
  });
  EXPECT_EQ(seen, "bc");
  seen.clear();
  run.scan({}, {}, [&](std::string_view k, const Entry&) {
    seen += k;
    return k != "c";  // early stop
  });
  EXPECT_EQ(seen, "abc");
}

TEST(MergeRuns, NewestWinsAndTombstonesDrop) {
  auto old_run = std::make_shared<SortedRun>(
      make_entries({{"a", "old"}, {"b", "old"}, {"c", "old"}}, 1));
  std::vector<std::pair<std::string, Entry>> newer;
  newer.emplace_back("a", Entry{"new", 10, false});
  newer.emplace_back("b", Entry{"", 11, true});  // tombstone
  auto new_run = std::make_shared<SortedRun>(std::move(newer));

  auto merged = merge_runs({new_run, old_run}, /*drop_tombstones=*/false);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].second.value, "new");
  EXPECT_TRUE(merged[1].second.tombstone);
  EXPECT_EQ(merged[2].second.value, "old");

  auto dropped = merge_runs({new_run, old_run}, /*drop_tombstones=*/true);
  ASSERT_EQ(dropped.size(), 2u);
  EXPECT_EQ(dropped[0].first, "a");
  EXPECT_EQ(dropped[1].first, "c");
}

// ------------------------------------------------------------------- WAL --

TEST(Wal, InMemoryRoundtrip) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.append(WalRecordType::kPut, "k1", "v1", 1).is_ok());
  ASSERT_TRUE(wal.append(WalRecordType::kDelete, "k2", "", 2).is_ok());
  int count = 0;
  auto status = wal.replay([&](WalRecordType type, std::string_view k,
                               std::string_view v, std::uint64_t seq) {
    if (count == 0) {
      EXPECT_EQ(type, WalRecordType::kPut);
      EXPECT_EQ(k, "k1");
      EXPECT_EQ(v, "v1");
      EXPECT_EQ(seq, 1u);
    } else {
      EXPECT_EQ(type, WalRecordType::kDelete);
      EXPECT_EQ(k, "k2");
    }
    ++count;
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(count, 2);
}

TEST(Wal, FileBackedSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/origami_wal_test.log";
  std::remove(path.c_str());
  {
    WriteAheadLog wal(path);
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "persist", "yes", 5).is_ok());
  }
  WriteAheadLog reopened(path);
  int count = 0;
  auto status = reopened.replay([&](WalRecordType, std::string_view k,
                                    std::string_view v, std::uint64_t) {
    EXPECT_EQ(k, "persist");
    EXPECT_EQ(v, "yes");
    ++count;
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(count, 1);
  std::remove(path.c_str());
}

TEST(Wal, CorruptRecordTreatedAsTornTailNotError) {
  const std::string path = ::testing::TempDir() + "/origami_wal_corrupt.log";
  std::remove(path.c_str());
  {
    WriteAheadLog wal(path);
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "k", "v", 1).is_ok());
  }
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(21);  // first payload byte (the key), inside the record
    f.put('X');
  }
  // The only record fails its checksum: decoding stops there, nothing is
  // delivered, and the scan still succeeds (torn write, not hard error).
  int replayed = 0;
  WalReplayStats stats;
  auto status = WriteAheadLog::replay_file(
      path,
      [&](WalRecordType, std::string_view, std::string_view, std::uint64_t) {
        ++replayed;
      },
      &stats);
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(replayed, 0);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST(Wal, TornTailTruncatedAndLaterAppendsSurvive) {
  // A crash mid-append leaves garbage at the tail. Replay must deliver the
  // valid prefix, truncate the garbage, and leave the log clean enough that
  // post-recovery appends replay correctly afterwards.
  WriteAheadLog wal;
  ASSERT_TRUE(wal.append(WalRecordType::kPut, "a", "1", 1).is_ok());
  ASSERT_TRUE(wal.append(WalRecordType::kPut, "b", "2", 2).is_ok());
  const std::size_t clean_size = wal.byte_size();
  wal.append_raw("\x7f\x7f\x7f half a record the writer died inside");
  ASSERT_GT(wal.byte_size(), clean_size);

  WalReplayStats stats;
  int replayed = 0;
  auto status = wal.replay(
      [&](WalRecordType, std::string_view, std::string_view, std::uint64_t) {
        ++replayed;
      },
      &stats);
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(replayed, 2);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(wal.byte_size(), clean_size);  // tail dropped

  // The log is writable again and a second replay sees old + new records.
  ASSERT_TRUE(wal.append(WalRecordType::kPut, "c", "3", 3).is_ok());
  WalReplayStats stats2;
  std::vector<std::string> keys;
  ASSERT_TRUE(wal.replay(
                     [&](WalRecordType, std::string_view k, std::string_view,
                         std::uint64_t) { keys.emplace_back(k); },
                     &stats2)
                  .is_ok());
  EXPECT_FALSE(stats2.torn_tail);
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[2], "c");
}

TEST(Wal, FileBackedTornTailTruncatedOnDisk) {
  const std::string path = ::testing::TempDir() + "/origami_wal_torn.log";
  std::remove(path.c_str());
  {
    WriteAheadLog wal(path);
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "k", "v", 7).is_ok());
    wal.append_raw("torn");
  }
  WriteAheadLog reopened(path);
  WalReplayStats stats;
  int replayed = 0;
  ASSERT_TRUE(reopened
                  .replay(
                      [&](WalRecordType, std::string_view, std::string_view,
                          std::uint64_t) { ++replayed; },
                      &stats)
                  .is_ok());
  EXPECT_EQ(replayed, 1);
  EXPECT_TRUE(stats.torn_tail);
  // The truncation was persisted: a fresh reopen sees a clean log.
  WriteAheadLog again(path);
  WalReplayStats stats2;
  ASSERT_TRUE(again
                  .replay([](WalRecordType, std::string_view, std::string_view,
                             std::uint64_t) {},
                          &stats2)
                  .is_ok());
  EXPECT_EQ(stats2.records, 1u);
  EXPECT_FALSE(stats2.torn_tail);
  std::remove(path.c_str());
}

TEST(Wal, TornTailPropertyEveryTruncationOffset) {
  // Property: for a crash that truncates the log at ANY byte offset inside
  // the final record, replay must deliver exactly the durable prefix — no
  // crash, no phantom record, no record invented from the severed bytes —
  // and leave the log clean enough that appends work again.
  const std::string full_path =
      ::testing::TempDir() + "/origami_wal_prop_full.log";
  const std::string cut_path =
      ::testing::TempDir() + "/origami_wal_prop_cut.log";
  std::remove(full_path.c_str());

  std::size_t prefix_end = 0;  // byte size of the first 4 records
  {
    WriteAheadLog wal(full_path);
    // Varied key/value shapes, including an empty value and a long value,
    // so the truncation sweep crosses every header field and body region.
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "k1", "v1", 1).is_ok());
    ASSERT_TRUE(wal.append(WalRecordType::kDelete, "key-two", "", 2).is_ok());
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "k3", std::string(64, 'x'), 3)
                    .is_ok());
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "", "empty-key", 4).is_ok());
    prefix_end = wal.byte_size();
    ASSERT_TRUE(
        wal.append(WalRecordType::kPut, "final-key", "final-value", 5).is_ok());
  }
  std::string bytes;
  {
    std::ifstream in(full_path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in));
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>{});
  }
  ASSERT_GT(bytes.size(), prefix_end);

  for (std::size_t cut = prefix_end; cut <= bytes.size(); ++cut) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    WriteAheadLog wal(cut_path);
    WalReplayStats stats;
    std::vector<std::uint64_t> seqnos;
    ASSERT_TRUE(wal.replay(
                       [&](WalRecordType, std::string_view, std::string_view,
                           std::uint64_t seq) { seqnos.push_back(seq); },
                       &stats)
                    .is_ok())
        << "cut at byte " << cut;
    const bool whole = cut == prefix_end || cut == bytes.size();
    const std::vector<std::uint64_t> expect =
        cut == bytes.size() ? std::vector<std::uint64_t>{1, 2, 3, 4, 5}
                            : std::vector<std::uint64_t>{1, 2, 3, 4};
    EXPECT_EQ(seqnos, expect) << "cut at byte " << cut;
    EXPECT_EQ(stats.torn_tail, !whole) << "cut at byte " << cut;
    if (!whole) {
      EXPECT_EQ(stats.dropped_bytes, cut - prefix_end)
          << "cut at byte " << cut;
    }
    // The truncation left a writable log: one more append replays cleanly
    // right behind the recovered prefix.
    ASSERT_TRUE(wal.append(WalRecordType::kPut, "post", "crash", 9).is_ok());
    WalReplayStats stats2;
    std::vector<std::uint64_t> after;
    ASSERT_TRUE(wal.replay(
                       [&](WalRecordType, std::string_view, std::string_view,
                           std::uint64_t seq) { after.push_back(seq); },
                       &stats2)
                    .is_ok());
    EXPECT_FALSE(stats2.torn_tail) << "cut at byte " << cut;
    ASSERT_FALSE(after.empty());
    EXPECT_EQ(after.back(), 9u) << "cut at byte " << cut;
    EXPECT_EQ(after.size(), expect.size() + 1) << "cut at byte " << cut;
  }
  std::remove(full_path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Wal, ResetClears) {
  WriteAheadLog wal;
  ASSERT_TRUE(wal.append(WalRecordType::kPut, "k", "v", 1).is_ok());
  ASSERT_TRUE(wal.reset().is_ok());
  EXPECT_EQ(wal.byte_size(), 0u);
}

// -------------------------------------------------------------------- Db --

TEST(Db, BasicCrud) {
  Db db;
  ASSERT_TRUE(db.put("alpha", "1").is_ok());
  ASSERT_TRUE(db.put("beta", "2").is_ok());
  auto r = db.get("alpha");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), "1");
  EXPECT_FALSE(db.get("gamma").is_ok());
  ASSERT_TRUE(db.del("alpha").is_ok());
  EXPECT_FALSE(db.get("alpha").is_ok());
  EXPECT_EQ(db.count_live(), 1u);
}

TEST(Db, GetAfterFlushAndCompaction) {
  DbOptions opts;
  opts.memtable_bytes = 512;  // force frequent flushes
  opts.runs_per_guard = 2;    // force compactions
  Db db(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        db.put("key" + std::to_string(i), "value" + std::to_string(i)).is_ok());
  }
  EXPECT_GT(db.stats().memtable_flushes, 0u);
  EXPECT_GT(db.stats().guard_compactions, 0u);
  for (int i = 0; i < 500; ++i) {
    auto r = db.get("key" + std::to_string(i));
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_EQ(r.value(), "value" + std::to_string(i));
  }
}

TEST(Db, OverwriteAcrossLevels) {
  DbOptions opts;
  opts.memtable_bytes = 256;
  opts.runs_per_guard = 2;
  Db db(opts);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(db.put("k" + std::to_string(i),
                         "r" + std::to_string(round))
                      .is_ok());
    }
  }
  for (int i = 0; i < 60; ++i) {
    auto r = db.get("k" + std::to_string(i));
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), "r5");
  }
}

TEST(Db, DeleteShadowsOlderLevels) {
  DbOptions opts;
  opts.memtable_bytes = 256;
  Db db(opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.put("k" + std::to_string(i), "v").is_ok());
  }
  ASSERT_TRUE(db.flush().is_ok());
  ASSERT_TRUE(db.del("k50").is_ok());
  EXPECT_FALSE(db.get("k50").is_ok());
  ASSERT_TRUE(db.flush().is_ok());
  EXPECT_FALSE(db.get("k50").is_ok());
}

TEST(Db, ScanMergesAllSources) {
  DbOptions opts;
  opts.memtable_bytes = 1u << 20;
  Db db(opts);
  ASSERT_TRUE(db.put("a", "1").is_ok());
  ASSERT_TRUE(db.flush().is_ok());
  ASSERT_TRUE(db.put("b", "2").is_ok());
  ASSERT_TRUE(db.flush().is_ok());
  ASSERT_TRUE(db.put("c", "3").is_ok());
  ASSERT_TRUE(db.put("a", "1-new").is_ok());  // shadows flushed value
  std::vector<std::string> keys;
  std::vector<std::string> values;
  db.scan({}, {}, [&](std::string_view k, std::string_view v) {
    keys.emplace_back(k);
    values.emplace_back(v);
    return true;
  });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(values[0], "1-new");
  EXPECT_EQ(keys[2], "c");
}

TEST(Db, ScanPrefix) {
  Db db;
  ASSERT_TRUE(db.put("dir1/fileA", "a").is_ok());
  ASSERT_TRUE(db.put("dir1/fileB", "b").is_ok());
  ASSERT_TRUE(db.put("dir2/fileC", "c").is_ok());
  int n = 0;
  db.scan_prefix("dir1/", [&](std::string_view k, std::string_view) {
    EXPECT_TRUE(k.starts_with("dir1/"));
    ++n;
    return true;
  });
  EXPECT_EQ(n, 2);
}

TEST(Db, ScanPrefixWithHighBytes) {
  Db db;
  std::string prefix = "p";
  prefix.push_back(static_cast<char>(0xff));
  ASSERT_TRUE(db.put(prefix + "x", "1").is_ok());
  ASSERT_TRUE(db.put("q", "2").is_ok());
  int n = 0;
  db.scan_prefix(prefix, [&](std::string_view, std::string_view) {
    ++n;
    return true;
  });
  EXPECT_EQ(n, 1);
}

TEST(Db, RecoverFromWalFile) {
  const std::string path = ::testing::TempDir() + "/origami_db_recover.wal";
  std::remove(path.c_str());
  DbOptions opts;
  opts.wal_path = path;
  {
    Db db(opts);
    ASSERT_TRUE(db.put("survives", "crash").is_ok());
    ASSERT_TRUE(db.del("phantom").is_ok());
    // No flush: data only in WAL + memtable; simulate crash by dropping db.
  }
  Db recovered(opts);
  ASSERT_TRUE(recovered.recover().is_ok());
  auto r = recovered.get("survives");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), "crash");
  EXPECT_FALSE(recovered.get("phantom").is_ok());
  std::remove(path.c_str());
}

TEST(Db, StatsCount) {
  Db db;
  ASSERT_TRUE(db.put("a", "1").is_ok());
  ASSERT_TRUE(db.put("b", "2").is_ok());
  (void)db.get("a");
  (void)db.get("missing");
  ASSERT_TRUE(db.del("b").is_ok());
  const DbStats s = db.stats();
  EXPECT_EQ(s.puts, 2u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.deletes, 1u);
}

// Property test: the Db must agree with std::map under random workloads
// across a range of compaction-pressure configurations.
struct FuzzConfig {
  std::uint64_t seed;
  std::size_t memtable_bytes;
  std::size_t runs_per_guard;
};

class DbFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(DbFuzz, MatchesReferenceMap) {
  const FuzzConfig cfg = GetParam();
  DbOptions opts;
  opts.memtable_bytes = cfg.memtable_bytes;
  opts.runs_per_guard = cfg.runs_per_guard;
  Db db(opts);
  std::map<std::string, std::string> ref;
  common::Xoshiro256 rng(cfg.seed);

  for (int step = 0; step < 4000; ++step) {
    const std::string key = "k" + std::to_string(rng.uniform(300));
    const double roll = rng.uniform_double();
    if (roll < 0.55) {
      const std::string value = "v" + std::to_string(rng.uniform(100000));
      ASSERT_TRUE(db.put(key, value).is_ok());
      ref[key] = value;
    } else if (roll < 0.8) {
      ASSERT_TRUE(db.del(key).is_ok());
      ref.erase(key);
    } else {
      auto r = db.get(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_FALSE(r.is_ok()) << key;
      } else {
        ASSERT_TRUE(r.is_ok()) << key;
        EXPECT_EQ(r.value(), it->second);
      }
    }
  }
  // Final full comparison through scan.
  std::map<std::string, std::string> scanned;
  db.scan({}, {}, [&](std::string_view k, std::string_view v) {
    scanned.emplace(std::string(k), std::string(v));
    return true;
  });
  EXPECT_EQ(scanned, ref);
  EXPECT_EQ(db.count_live(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    Pressure, DbFuzz,
    ::testing::Values(FuzzConfig{1, 1u << 20, 4},   // rare flushes
                      FuzzConfig{2, 2048, 4},       // frequent flushes
                      FuzzConfig{3, 512, 2},        // heavy compaction
                      FuzzConfig{4, 256, 1},        // pathological churn
                      FuzzConfig{5, 4096, 8}));

}  // namespace
}  // namespace origami::kv
