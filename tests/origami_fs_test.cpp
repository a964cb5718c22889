// Tests for the live OrigamiFS metadata service: POSIX-flavoured semantics,
// shard routing, and subtree migration correctness.
#include <gtest/gtest.h>

#include <set>

#include "origami/common/rng.hpp"
#include "origami/fs/origami_fs.hpp"

namespace origami::fs {
namespace {

OrigamiFs::Options small_options(std::uint32_t shards = 3) {
  OrigamiFs::Options o;
  o.shards = shards;
  return o;
}

// ------------------------------------------------------------- semantics --

TEST(OrigamiFs, RootExists) {
  OrigamiFs fsys;
  auto s = fsys.stat("/");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().ino, kRootIno);
  EXPECT_TRUE(s.value().is_dir);
}

TEST(OrigamiFs, MkdirCreateStat) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/home").is_ok());
  ASSERT_TRUE(fsys.mkdir("/home/alice").is_ok());
  auto file = fsys.create("/home/alice/notes.txt");
  ASSERT_TRUE(file.is_ok());

  auto s = fsys.stat("/home/alice/notes.txt");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().ino, file.value());
  EXPECT_FALSE(s.value().is_dir);

  auto d = fsys.stat("/home/alice");
  ASSERT_TRUE(d.is_ok());
  EXPECT_TRUE(d.value().is_dir);
}

TEST(OrigamiFs, ErrorsMatchPosixExpectations) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.create("/a/f").is_ok());

  // Duplicate names.
  EXPECT_EQ(fsys.mkdir("/a").status().code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(fsys.create("/a/f").status().code(),
            common::StatusCode::kAlreadyExists);
  // Missing intermediate.
  EXPECT_EQ(fsys.create("/missing/f").status().code(),
            common::StatusCode::kNotFound);
  // Descend through a file.
  EXPECT_EQ(fsys.stat("/a/f/x").status().code(), common::StatusCode::kNotFound);
  // unlink on a dir / rmdir on a file.
  EXPECT_EQ(fsys.unlink("/a").code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(fsys.rmdir("/a/f").code(), common::StatusCode::kFailedPrecondition);
  // rmdir on non-empty.
  EXPECT_EQ(fsys.rmdir("/a").code(), common::StatusCode::kFailedPrecondition);
  // stat of absent leaf.
  EXPECT_EQ(fsys.stat("/a/zzz").status().code(), common::StatusCode::kNotFound);
}

TEST(OrigamiFs, UnlinkAndRmdirLifecycle) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/tmp").is_ok());
  ASSERT_TRUE(fsys.create("/tmp/x").is_ok());
  EXPECT_TRUE(fsys.unlink("/tmp/x").is_ok());
  EXPECT_EQ(fsys.stat("/tmp/x").status().code(), common::StatusCode::kNotFound);
  EXPECT_TRUE(fsys.rmdir("/tmp").is_ok());
  EXPECT_EQ(fsys.stat("/tmp").status().code(), common::StatusCode::kNotFound);
  // Recreating the same names must work.
  EXPECT_TRUE(fsys.mkdir("/tmp").is_ok());
  EXPECT_TRUE(fsys.create("/tmp/x").is_ok());
}

TEST(OrigamiFs, ReaddirListsAllChildren) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/d").is_ok());
  std::set<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    const std::string name = "f" + std::to_string(i);
    ASSERT_TRUE(fsys.create("/d/" + name).is_ok());
    expected.insert(name);
  }
  ASSERT_TRUE(fsys.mkdir("/d/sub").is_ok());
  expected.insert("sub");

  auto listing = fsys.readdir("/d");
  ASSERT_TRUE(listing.is_ok());
  std::set<std::string> got;
  for (const DirEntry& e : listing.value()) got.insert(e.name);
  EXPECT_EQ(got, expected);
  // readdir on root sees /d.
  auto root = fsys.readdir("/");
  ASSERT_TRUE(root.is_ok());
  ASSERT_EQ(root.value().size(), 1u);
  EXPECT_EQ(root.value()[0].name, "d");
  EXPECT_TRUE(root.value()[0].is_dir);
}

TEST(OrigamiFs, RenameFileAndDirectory) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/src").is_ok());
  ASSERT_TRUE(fsys.mkdir("/dst").is_ok());
  ASSERT_TRUE(fsys.create("/src/file").is_ok());
  ASSERT_TRUE(fsys.mkdir("/src/dir").is_ok());
  ASSERT_TRUE(fsys.create("/src/dir/inner").is_ok());

  ASSERT_TRUE(fsys.rename("/src/file", "/dst/file2").is_ok());
  EXPECT_FALSE(fsys.stat("/src/file").is_ok());
  EXPECT_TRUE(fsys.stat("/dst/file2").is_ok());

  // Renaming a directory carries its subtree (same inode, entries follow).
  const auto before = fsys.stat("/src/dir").value().ino;
  ASSERT_TRUE(fsys.rename("/src/dir", "/dst/dir").is_ok());
  EXPECT_EQ(fsys.stat("/dst/dir").value().ino, before);
  EXPECT_TRUE(fsys.stat("/dst/dir/inner").is_ok());
  EXPECT_FALSE(fsys.stat("/src/dir/inner").is_ok());

  // Destination exists / renaming root are rejected.
  EXPECT_EQ(fsys.rename("/dst/file2", "/dst/dir").code(),
            common::StatusCode::kAlreadyExists);
  EXPECT_EQ(fsys.rename("/", "/x").code(), common::StatusCode::kInvalidArgument);
}

TEST(OrigamiFs, SetattrPersists) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.create("/f").is_ok());
  fsns::InodeAttr attr;
  attr.mode = 0600;
  attr.size = 4096;
  ASSERT_TRUE(fsys.setattr("/f", attr).is_ok());
  auto s = fsys.stat("/f");
  ASSERT_TRUE(s.is_ok());
  EXPECT_EQ(s.value().attr.mode, 0600u);
  EXPECT_EQ(s.value().attr.size, 4096u);
}

// --------------------------------------------------------------- sharding --

TEST(OrigamiFs, EverythingStartsOnShardZero) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.mkdir("/a/b").is_ok());
  EXPECT_EQ(fsys.owner_of("/").value(), 0u);
  EXPECT_EQ(fsys.owner_of("/a").value(), 0u);
  EXPECT_EQ(fsys.owner_of("/a/b").value(), 0u);
  const auto stats = fsys.shard_stats();
  EXPECT_GT(stats[0].entries, 0u);
  EXPECT_EQ(stats[1].entries, 0u);
}

TEST(OrigamiFs, MigrationMovesFragmentsAndPreservesData) {
  OrigamiFs fsys(small_options());
  ASSERT_TRUE(fsys.mkdir("/proj").is_ok());
  ASSERT_TRUE(fsys.mkdir("/proj/src").is_ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(fsys.create("/proj/src/f" + std::to_string(i)).is_ok());
  }
  ASSERT_TRUE(fsys.mkdir("/other").is_ok());

  auto moved = fsys.migrate_subtree("/proj", 2);
  ASSERT_TRUE(moved.is_ok());
  EXPECT_GT(moved.value(), 10u);
  EXPECT_EQ(fsys.owner_of("/proj").value(), 2u);
  EXPECT_EQ(fsys.owner_of("/proj/src").value(), 2u);
  EXPECT_EQ(fsys.owner_of("/other").value(), 0u);

  // Everything still resolves and lists correctly after the move.
  EXPECT_TRUE(fsys.stat("/proj/src/f3").is_ok());
  auto listing = fsys.readdir("/proj/src");
  ASSERT_TRUE(listing.is_ok());
  EXPECT_EQ(listing.value().size(), 10u);

  // New entries under the migrated dir land on the new shard.
  ASSERT_TRUE(fsys.create("/proj/src/fresh").is_ok());
  const auto stats = fsys.shard_stats();
  EXPECT_GT(stats[2].entries, 10u);

  // Idempotent: migrating again to the same shard moves nothing.
  EXPECT_EQ(fsys.migrate_subtree("/proj", 2).value(), 0u);
  // Bad target shard.
  EXPECT_EQ(fsys.migrate_subtree("/proj", 99).status().code(),
            common::StatusCode::kInvalidArgument);
}

// Pins the exact per-shard work of a fixed op sequence: every path
// component costs one dirent lookup and one store get, so any change to
// resolution or routing shows up here as a counter diff.
TEST(OrigamiFs, FixedSequencePinsShardStatsAndStoreGets) {
  OrigamiFs fsys(small_options(3));
  ASSERT_TRUE(fsys.mkdir("/a").is_ok());
  ASSERT_TRUE(fsys.mkdir("/a/b").is_ok());
  ASSERT_TRUE(fsys.mkdir("/c").is_ok());
  ASSERT_TRUE(fsys.create("/a/f1").is_ok());
  ASSERT_TRUE(fsys.create("/a/b/f2").is_ok());
  ASSERT_TRUE(fsys.create("/a/b/a-file-name-longer-than-sso").is_ok());
  ASSERT_TRUE(fsys.create("/c/f3").is_ok());
  ASSERT_TRUE(fsys.stat("/a/f1").is_ok());
  ASSERT_TRUE(fsys.stat("//a/./b/f2").is_ok());
  ASSERT_TRUE(fsys.stat("/").is_ok());
  ASSERT_FALSE(fsys.stat("/missing").is_ok());
  ASSERT_FALSE(fsys.stat("/a/missing/x").is_ok());
  ASSERT_FALSE(fsys.stat("/a/f1/x").is_ok());
  ASSERT_EQ(fsys.readdir("/a").value().size(), 2u);
  ASSERT_EQ(fsys.readdir("/a/b").value().size(), 2u);
  ASSERT_TRUE(fsys.unlink("/a/f1").is_ok());
  ASSERT_TRUE(fsys.setattr("/a/b/f2", fsns::InodeAttr{}).is_ok());
  ASSERT_EQ(fsys.migrate_subtree("/a", 2).value(), 3u);
  ASSERT_TRUE(fsys.stat("/a/b/f2").is_ok());
  ASSERT_EQ(fsys.migrate_subtree("/a/b", 1).value(), 2u);
  ASSERT_TRUE(fsys.create("/a/b/f4").is_ok());
  ASSERT_EQ(fsys.readdir("/a/b").value().size(), 3u);
  ASSERT_TRUE(fsys.rename("/c/f3", "/a/b/f3").is_ok());
  ASSERT_TRUE(fsys.unlink("/a/b/f3").is_ok());
  ASSERT_TRUE(fsys.rmdir("/c").is_ok());
  ASSERT_FALSE(fsys.stat("/c/f3").is_ok());

  const std::vector<ShardStats> stats = fsys.shard_stats();
  ASSERT_EQ(stats.size(), 3u);
  const std::uint64_t want[3][3] = {{45, 11, 1}, {4, 3, 3}, {7, 0, 1}};
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(stats[s].lookups, want[s][0]) << "shard " << s;
    EXPECT_EQ(stats[s].mutations, want[s][1]) << "shard " << s;
    EXPECT_EQ(stats[s].entries, want[s][2]) << "shard " << s;
  }
  std::uint64_t gets = 0;
  for (std::uint32_t s = 0; s < 3; ++s) gets += fsys.shard_db(s).stats().gets;
  EXPECT_EQ(gets, 53u);
}

TEST(OrigamiFs, RandomOpsWithMigrationsMatchReferenceModel) {
  // Property test: a shadow model of (path -> is_dir) must agree with the
  // service under random ops interleaved with random subtree migrations.
  OrigamiFs fsys(small_options(4));
  common::Xoshiro256 rng(2024);

  std::vector<std::string> dirs{""};  // "" == root prefix
  std::set<std::string> files;
  for (int step = 0; step < 3'000; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.25) {
      const std::string& parent = dirs[rng.uniform(dirs.size())];
      const std::string path = parent + "/d" + std::to_string(step);
      ASSERT_TRUE(fsys.mkdir(path).is_ok()) << path;
      dirs.push_back(path);
    } else if (roll < 0.6) {
      const std::string& parent = dirs[rng.uniform(dirs.size())];
      const std::string path = parent + "/f" + std::to_string(step);
      ASSERT_TRUE(fsys.create(path).is_ok()) << path;
      files.insert(path);
    } else if (roll < 0.75 && !files.empty()) {
      auto it = files.begin();
      std::advance(it, static_cast<long>(rng.uniform(files.size())));
      ASSERT_TRUE(fsys.unlink(*it).is_ok()) << *it;
      files.erase(it);
    } else if (roll < 0.9) {
      const std::string& victim = dirs[rng.uniform(dirs.size())];
      if (victim.empty()) continue;  // never migrate "/" wholesale? allowed, skip
      const auto target = static_cast<std::uint32_t>(rng.uniform(4));
      ASSERT_TRUE(fsys.migrate_subtree(victim, target).is_ok()) << victim;
    } else if (!files.empty()) {
      auto it = files.begin();
      std::advance(it, static_cast<long>(rng.uniform(files.size())));
      ASSERT_TRUE(fsys.stat(*it).is_ok()) << *it;
    }
  }
  // Final audit: every live file and directory resolves.
  for (const std::string& f : files) {
    auto s = fsys.stat(f);
    ASSERT_TRUE(s.is_ok()) << f;
    EXPECT_FALSE(s.value().is_dir);
  }
  for (const std::string& d : dirs) {
    if (d.empty()) continue;
    auto s = fsys.stat(d);
    ASSERT_TRUE(s.is_ok()) << d;
    EXPECT_TRUE(s.value().is_dir);
  }
  // Entry accounting is conserved across shards.
  std::uint64_t total = 0;
  for (const auto& st : fsys.shard_stats()) total += st.entries;
  EXPECT_EQ(total, fsys.entry_count());
  EXPECT_EQ(total, files.size() + dirs.size() - 1);
}

}  // namespace
}  // namespace origami::fs

namespace origami::fs {
namespace {

TEST(OrigamiFsCheckpoint, SurvivesRestart) {
  const std::string prefix = ::testing::TempDir() + "/origami_fs_ckpt";
  {
    OrigamiFs fsys(small_options(3));
    ASSERT_TRUE(fsys.mkdir("/proj").is_ok());
    ASSERT_TRUE(fsys.mkdir("/proj/src").is_ok());
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(fsys.create("/proj/src/f" + std::to_string(i)).is_ok());
    }
    ASSERT_TRUE(fsys.migrate_subtree("/proj", 2).is_ok());
    ASSERT_TRUE(fsys.checkpoint(prefix).is_ok());
  }

  OrigamiFs revived(small_options(3));
  ASSERT_TRUE(revived.restore(prefix).is_ok());
  // Namespace intact, ownership preserved, new writes get fresh inos.
  EXPECT_TRUE(revived.stat("/proj/src/f7").is_ok());
  EXPECT_EQ(revived.readdir("/proj/src").value().size(), 25u);
  EXPECT_EQ(revived.owner_of("/proj").value(), 2u);
  const auto before = revived.entry_count();
  auto fresh = revived.create("/proj/src/after-restart");
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(revived.entry_count(), before + 1);
  // The fresh inode does not collide with any checkpointed one.
  EXPECT_NE(fresh.value(), revived.stat("/proj/src/f7").value().ino);

  // Activity bookkeeping survives too (shape, not the live counters).
  bool found_src = false;
  for (const auto& a : revived.collect_activity(false)) {
    if (a.sub_files >= 25) found_src = true;
  }
  EXPECT_TRUE(found_src);

  for (int i = 0; i < 3; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

TEST(OrigamiFsCheckpoint, ShardCountMismatchRejected) {
  const std::string prefix = ::testing::TempDir() + "/origami_fs_ckpt2";
  {
    OrigamiFs fsys(small_options(2));
    ASSERT_TRUE(fsys.mkdir("/d").is_ok());
    ASSERT_TRUE(fsys.checkpoint(prefix).is_ok());
  }
  OrigamiFs wrong(small_options(4));
  EXPECT_EQ(wrong.restore(prefix).code(), common::StatusCode::kCorruption);
  for (int i = 0; i < 2; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

}  // namespace
}  // namespace origami::fs
