// Tests for the skip-list memtable structure and Db checkpoint/restore.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "origami/common/rng.hpp"
#include "origami/kv/db.hpp"
#include "origami/kv/skiplist.hpp"

namespace origami::kv {
namespace {

// ---------------------------------------------------------------- SkipList --

TEST(SkipList, UpsertFindBasics) {
  SkipList<int> list;
  EXPECT_TRUE(list.empty());
  list.upsert("banana") = 2;
  list.upsert("apple") = 1;
  list.upsert("cherry") = 3;
  EXPECT_EQ(list.size(), 3u);
  ASSERT_NE(list.find("apple"), nullptr);
  EXPECT_EQ(*list.find("apple"), 1);
  EXPECT_EQ(list.find("durian"), nullptr);
  list.upsert("apple") = 11;  // overwrite, not duplicate
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(*list.find("apple"), 11);
}

TEST(SkipList, ScanIsSortedAndBounded) {
  SkipList<int> list;
  for (int i : {5, 3, 9, 1, 7}) {
    list.upsert("k" + std::to_string(i)) = i;
  }
  std::string order;
  list.scan({}, {}, [&](std::string_view k, const int&) {
    order += k.back();
    return true;
  });
  EXPECT_EQ(order, "13579");
  order.clear();
  list.scan("k3", "k7", [&](std::string_view k, const int&) {
    order += k.back();
    return true;
  });
  EXPECT_EQ(order, "35");
  // Early stop.
  int seen = 0;
  list.scan({}, {}, [&](std::string_view, const int&) { return ++seen < 2; });
  EXPECT_EQ(seen, 2);
}

TEST(SkipList, MatchesReferenceUnderRandomLoad) {
  SkipList<std::uint64_t> list;
  std::map<std::string, std::uint64_t> ref;
  common::Xoshiro256 rng(99);
  for (int i = 0; i < 20'000; ++i) {
    const std::string key = "key" + std::to_string(rng.uniform(2'000));
    const std::uint64_t value = rng();
    list.upsert(key) = value;
    ref[key] = value;
  }
  EXPECT_EQ(list.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(list.find(k), nullptr) << k;
    EXPECT_EQ(*list.find(k), v);
  }
  // Ordered iteration must match the reference map exactly.
  auto it = ref.begin();
  list.scan({}, {}, [&](std::string_view k, const std::uint64_t& v) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
    return true;
  });
  EXPECT_EQ(it, ref.end());
}

TEST(SkipList, ArenaAccountingGrows) {
  SkipList<int> list;
  const std::size_t before = list.arena_bytes();
  list.upsert(std::string(1000, 'x')) = 1;
  EXPECT_GT(list.arena_bytes(), before + 1000);
}

// -------------------------------------------------------------- checkpoint --

TEST(DbCheckpoint, RoundtripPreservesEverything) {
  const std::string path = ::testing::TempDir() + "/origami_ckpt.bin";
  DbOptions opts;
  opts.memtable_bytes = 1024;  // force multi-level structure
  opts.runs_per_guard = 2;
  Db db(opts);
  std::map<std::string, std::string> ref;
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 2'000; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform(500));
    if (rng.chance(0.8)) {
      const std::string value = "v" + std::to_string(rng());
      ASSERT_TRUE(db.put(key, value).is_ok());
      ref[key] = value;
    } else {
      ASSERT_TRUE(db.del(key).is_ok());
      ref.erase(key);
    }
  }
  ASSERT_TRUE(db.checkpoint(path).is_ok());

  Db restored(opts);
  ASSERT_TRUE(restored.restore(path).is_ok());
  EXPECT_EQ(restored.count_live(), ref.size());
  for (const auto& [k, v] : ref) {
    auto r = restored.get(k);
    ASSERT_TRUE(r.is_ok()) << k;
    EXPECT_EQ(r.value(), v);
  }
  // Writes continue with fresh seqnos after restore.
  ASSERT_TRUE(restored.put("post-restore", "yes").is_ok());
  EXPECT_TRUE(restored.get("post-restore").is_ok());
  std::remove(path.c_str());
}

TEST(DbCheckpoint, UnflushedMemtableIncluded) {
  const std::string path = ::testing::TempDir() + "/origami_ckpt_mem.bin";
  Db db;
  ASSERT_TRUE(db.put("only-in-memtable", "1").is_ok());
  ASSERT_TRUE(db.checkpoint(path).is_ok());
  Db restored;
  ASSERT_TRUE(restored.restore(path).is_ok());
  EXPECT_TRUE(restored.get("only-in-memtable").is_ok());
  std::remove(path.c_str());
}

TEST(DbCheckpoint, DetectsCorruption) {
  const std::string path = ::testing::TempDir() + "/origami_ckpt_bad.bin";
  Db db;
  ASSERT_TRUE(db.put("a", "1").is_ok());
  ASSERT_TRUE(db.checkpoint(path).is_ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    f.put('!');
  }
  Db restored;
  const auto status = restored.restore(path);
  EXPECT_EQ(status.code(), common::StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DbCheckpoint, MissingFileIsNotFound) {
  Db db;
  EXPECT_EQ(db.restore("/nonexistent/ckpt").code(),
            common::StatusCode::kNotFound);
}

}  // namespace
}  // namespace origami::kv

// Appended coverage: iterator, major compaction and level introspection.
namespace origami::kv {
namespace {

TEST(DbIterator, SnapshotOrderedIteration) {
  Db db;
  ASSERT_TRUE(db.put("c", "3").is_ok());
  ASSERT_TRUE(db.put("a", "1").is_ok());
  ASSERT_TRUE(db.flush().is_ok());
  ASSERT_TRUE(db.put("b", "2").is_ok());
  ASSERT_TRUE(db.del("c").is_ok());

  auto it = db.new_iterator();
  std::string keys;
  for (; it.valid(); it.next()) keys += it.key();
  EXPECT_EQ(keys, "ab");

  // Snapshot semantics: later writes are invisible.
  ASSERT_TRUE(db.put("z", "26").is_ok());
  it.seek("a");
  std::string again;
  for (; it.valid(); it.next()) again += it.key();
  EXPECT_EQ(again, "ab");
}

TEST(DbIterator, SeekPositionsAtLowerBound) {
  Db db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.put("k" + std::to_string(i), "v").is_ok());
  }
  auto it = db.new_iterator();
  it.seek("k5");
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.key(), "k5");
  it.seek("k95");  // past the end
  EXPECT_FALSE(it.valid());
}

TEST(DbCompactAll, SettlesToOneRunPerGuardAndDropsTombstones) {
  DbOptions opts;
  opts.memtable_bytes = 512;
  opts.runs_per_guard = 8;  // avoid automatic compaction
  Db db(opts);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.put("key" + std::to_string(i), "value").is_ok());
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.del("key" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(db.compact_all().is_ok());

  std::size_t live = 0;
  std::size_t total_entries = 0;
  for (const auto& level : db.level_info()) {
    EXPECT_LE(level.runs, level.guards);  // at most one run per guard
    total_entries += level.entries;
  }
  db.scan({}, {}, [&](std::string_view, std::string_view) {
    ++live;
    return true;
  });
  EXPECT_EQ(live, 200u);
  // Tombstones at the bottom were dropped, so stored entries ~= live ones.
  EXPECT_LE(total_entries, 400u);
  EXPECT_EQ(db.count_live(), 200u);
  // Reads still correct post-compaction.
  EXPECT_FALSE(db.get("key0").is_ok());
  EXPECT_TRUE(db.get("key300").is_ok());
}

TEST(DbLevelInfo, TracksStructure) {
  DbOptions opts;
  opts.memtable_bytes = 256;
  Db db(opts);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.put("k" + std::to_string(i), "0123456789").is_ok());
  }
  const auto info = db.level_info();
  ASSERT_EQ(info.size(), 4u);  // default level count
  std::size_t runs = 0;
  std::size_t bytes = 0;
  for (const auto& l : info) {
    runs += l.runs;
    bytes += l.bytes;
  }
  EXPECT_GT(runs, 0u);
  EXPECT_GT(bytes, 0u);
}

// --------------------------------------------------------------- Db model --

// Dirent-shaped keys: an 8-byte big-endian parent prefix plus a name, so
// siblings share a prefix exactly as OrigamiFS and the InodeStore lay them
// out. Parents include high bytes to exercise prefix-scan bounds.
std::string model_key(std::uint64_t parent, std::string_view name) {
  std::string key;
  for (int shift = 56; shift >= 0; shift -= 8) {
    key.push_back(static_cast<char>((parent >> shift) & 0xff));
  }
  key.append(name);
  return key;
}

struct ModelConfig {
  std::uint64_t seed;
  std::size_t memtable_bytes;
};

class DbModel : public ::testing::TestWithParam<ModelConfig> {};

// The store must agree with a std::map shadow under interleaved put / del /
// get / scan_prefix, with explicit flushes, major compactions and
// crash-recover cycles in between. Sync commit makes every acked write
// durable, so a crash followed by recover() must lose nothing.
TEST_P(DbModel, MatchesShadowAcrossFlushCompactAndCrash) {
  const ModelConfig cfg = GetParam();
  DbOptions opts;
  opts.memtable_bytes = cfg.memtable_bytes;
  opts.runs_per_guard = 2;
  Db db(opts);
  std::map<std::string, std::string> shadow;
  common::Xoshiro256 rng(cfg.seed);
  const std::uint64_t parents[] = {1, 2, 0xff, 0x1ff, 0x0100000000000000ULL,
                                   ~0ULL};

  auto random_key = [&] {
    const std::uint64_t parent = parents[rng.uniform(std::size(parents))];
    const std::uint64_t n = rng.uniform(150);
    // Short names, long names (past the small-string buffer) and the empty
    // name (the key is then the bare prefix).
    std::string name;
    if (n % 7 == 0) {
      name = "";
    } else if (n % 3 == 0) {
      name = "a-much-longer-entry-name-" + std::to_string(n);
    } else {
      name = "e" + std::to_string(n);
    }
    return std::make_pair(parent, model_key(parent, name));
  };

  for (int step = 0; step < 6000; ++step) {
    const double roll = rng.uniform_double();
    auto [parent, key] = random_key();
    if (roll < 0.45) {
      const std::string value =
          "v" + std::to_string(step) + std::string(rng.uniform(40), 'x');
      ASSERT_TRUE(db.put(key, value).is_ok());
      shadow[key] = value;
    } else if (roll < 0.65) {
      ASSERT_TRUE(db.del(key).is_ok());
      shadow.erase(key);
    } else if (roll < 0.9) {
      auto got = db.get(key);
      const auto it = shadow.find(key);
      if (it == shadow.end()) {
        EXPECT_FALSE(got.is_ok()) << "step " << step;
      } else {
        ASSERT_TRUE(got.is_ok()) << "step " << step;
        EXPECT_EQ(got.value(), it->second) << "step " << step;
      }
    } else if (roll < 0.985) {
      const std::string prefix = model_key(parent, {});
      std::vector<std::pair<std::string, std::string>> scanned;
      db.scan_prefix(prefix, [&](std::string_view k, std::string_view v) {
        scanned.emplace_back(std::string(k), std::string(v));
        return true;
      });
      std::vector<std::pair<std::string, std::string>> expected;
      for (auto it = shadow.lower_bound(prefix);
           it != shadow.end() && it->first.compare(0, 8, prefix) == 0; ++it) {
        expected.emplace_back(it->first, it->second);
      }
      ASSERT_EQ(scanned, expected) << "step " << step;
    } else if (roll < 0.99) {
      ASSERT_TRUE(db.flush().is_ok());
    } else if (roll < 0.995) {
      ASSERT_TRUE(db.compact_all().is_ok());
    } else {
      const Db::LossReport loss = db.simulate_crash(/*tear_wal_tail=*/true);
      EXPECT_TRUE(loss.acked_lost.empty());
      ASSERT_TRUE(db.recover().is_ok());
    }
  }

  std::vector<std::pair<std::string, std::string>> all;
  db.scan({}, {}, [&](std::string_view k, std::string_view v) {
    all.emplace_back(std::string(k), std::string(v));
    return true;
  });
  const std::vector<std::pair<std::string, std::string>> expected(
      shadow.begin(), shadow.end());
  EXPECT_EQ(all, expected);
  EXPECT_EQ(db.count_live(), shadow.size());
}

INSTANTIATE_TEST_SUITE_P(
    Memtable, DbModel,
    ::testing::Values(ModelConfig{11, 1u << 22},  // memtable-resident
                      ModelConfig{12, 8192},      // regular flushes
                      ModelConfig{13, 1024}));    // flush on almost every put

}  // namespace
}  // namespace origami::kv
