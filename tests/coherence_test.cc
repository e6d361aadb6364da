// Multi-server coherence (§5): "changes made to a file or directory on one
// machine are immediately visible on all others."
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>

#include "src/fs/fsck.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class CoherenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.petal_servers = 3;
    opts.disks_per_petal = 2;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    for (int i = 0; i < 3; ++i) {
      auto node = cluster_->AddFrangipani();
      ASSERT_TRUE(node.ok()) << node.status();
    }
  }

  Bytes Pattern(size_t n, uint8_t seed = 7) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>((i * 131 + seed) & 0xFF);
    }
    return out;
  }

  void ExpectFsckClean() {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(cluster_->fs(i)->SyncAll().ok());
    }
    PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
    FsckReport report = RunFsck(&device, cluster_->geometry());
    EXPECT_TRUE(report.ok) << report.Summary();
  }

  std::unique_ptr<Cluster> cluster_;
};

// Server `idx`'s requests to the lock service for `lock` while `op` runs,
// as "S" (shared) or "X" (exclusive), one letter per request.
std::string LockRequestsDuring(Cluster* cluster, size_t idx, LockId lock,
                               const std::function<void()>& op) {
  obs::Recorder* rec = obs::Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  op();
  std::string modes;
  for (const obs::TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "lock.grant_wait" && e.node == cluster->node(idx)->node_id() &&
        e.a0 == lock) {
      modes += static_cast<LockMode>(e.a1) == LockMode::kExclusive ? "X" : "S";
    }
  }
  rec->Enable(false);
  rec->Clear();
  return modes;
}

uint64_t StaleHints() {
  return obs::MetricsRegistry::Default()->GetCounter("fs.name_hint.stale")->value();
}

TEST_F(CoherenceTest, NamespaceChangesVisibleEverywhere) {
  ASSERT_TRUE(cluster_->fs(0)->Mkdir("/shared").ok());
  ASSERT_TRUE(cluster_->fs(1)->Create("/shared/from1").ok());
  ASSERT_TRUE(cluster_->fs(2)->Create("/shared/from2").ok());
  for (int i = 0; i < 3; ++i) {
    auto entries = cluster_->fs(i)->Readdir("/shared");
    ASSERT_TRUE(entries.ok()) << "server " << i;
    EXPECT_EQ(entries->size(), 2u) << "server " << i;
  }
  ASSERT_TRUE(cluster_->fs(2)->Unlink("/shared/from1").ok());
  auto entries = cluster_->fs(0)->Readdir("/shared");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(CoherenceTest, DataWrittenOnOneServerReadOnAnother) {
  auto ino = cluster_->fs(0)->Create("/data");
  ASSERT_TRUE(ino.ok());
  Bytes data = Pattern(100 * 1024);
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, data).ok());
  // No explicit sync: the lock revocation must flush server 0's dirty data.
  Bytes back;
  auto n = cluster_->fs(1)->Read(*ino, 0, data.size(), &back);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(back, data);
}

TEST_F(CoherenceTest, WriteAfterRemoteWriteOverwrites) {
  auto ino = cluster_->fs(0)->Create("/pingpong");
  ASSERT_TRUE(ino.ok());
  for (int round = 0; round < 5; ++round) {
    FrangipaniFs* writer = cluster_->fs(round % 3);
    Bytes data = Pattern(8192, static_cast<uint8_t>(round));
    ASSERT_TRUE(writer->Write(*ino, 0, data).ok()) << round;
    FrangipaniFs* reader = cluster_->fs((round + 1) % 3);
    Bytes back;
    ASSERT_TRUE(reader->Read(*ino, 0, 8192, &back).ok());
    EXPECT_EQ(back, data) << round;
  }
}

TEST_F(CoherenceTest, StatSeesRemoteSizeChanges) {
  auto ino = cluster_->fs(0)->Create("/grows");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, Pattern(1000)).ok());
  auto attr = cluster_->fs(1)->StatIno(*ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 1000u);
  ASSERT_TRUE(cluster_->fs(1)->Write(*ino, 1000, Pattern(500)).ok());
  attr = cluster_->fs(2)->StatIno(*ino);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->size, 1500u);
}

TEST_F(CoherenceTest, ConcurrentCreatesInOneDirectoryAllSucceed) {
  ASSERT_TRUE(cluster_->fs(0)->Mkdir("/race").ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < 15; ++i) {
        std::string path = "/race/s" + std::to_string(s) + "_" + std::to_string(i);
        if (!cluster_->fs(s)->Create(path).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  auto entries = cluster_->fs(0)->Readdir("/race");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 45u);
  // Every entry resolves to a distinct inode.
  std::set<uint64_t> inos;
  for (const DirEntry& e : *entries) {
    inos.insert(e.ino);
  }
  EXPECT_EQ(inos.size(), 45u);
}

TEST_F(CoherenceTest, ConcurrentCreateSameNameExactlyOneWins) {
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      if (cluster_->fs(s)->Create("/highlander").ok()) {
        winners.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(winners.load(), 1);
  auto entries = cluster_->fs(0)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(CoherenceTest, ConcurrentMixedWorkloadStaysConsistent) {
  ASSERT_TRUE(cluster_->fs(0)->Mkdir("/mix").ok());
  std::vector<std::thread> threads;
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&, s] {
      FrangipaniFs* fs = cluster_->fs(s);
      Rng rng(1000 + s);
      for (int i = 0; i < 25; ++i) {
        std::string name = "/mix/f" + std::to_string(rng.Below(10));
        switch (rng.Below(4)) {
          case 0: {
            (void)fs->Create(name);
            break;
          }
          case 1: {
            auto ino = fs->Lookup(name);
            if (ino.ok()) {
              (void)fs->Write(*ino, rng.Below(3) * 4096, Bytes(512, static_cast<uint8_t>(i)));
            }
            break;
          }
          case 2: {
            auto ino = fs->Lookup(name);
            if (ino.ok()) {
              Bytes out;
              (void)fs->Read(*ino, 0, 4096, &out);
            }
            break;
          }
          case 3: {
            (void)fs->Unlink(name);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cluster_->fs(i)->SyncAll().ok());
  }
  PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
  FsckReport report = RunFsck(&device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

// §5 two-phase ops in a directory another server writes: phase two takes
// the parent's lock exclusive, and phase one no longer asks for it shared
// first, so a create and an unlink each make one request for it.
TEST_F(CoherenceTest, CreateAndUnlinkRequestTheParentLockOnce) {
  FrangipaniFs* a = cluster_->fs(0);
  FrangipaniFs* b = cluster_->fs(1);
  ASSERT_TRUE(a->Mkdir("/d").ok());
  StatusOr<uint64_t> d = a->Lookup("/d");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(b->Create("/d/b").ok());  // b now holds /d exclusive
  EXPECT_EQ(LockRequestsDuring(cluster_.get(), 0, InodeLockId(*d),
                               [&] { ASSERT_TRUE(a->Create("/d/a").ok()); }),
            "X");
  ASSERT_TRUE(b->Create("/d/b2").ok());
  EXPECT_EQ(LockRequestsDuring(cluster_.get(), 0, InodeLockId(*d),
                               [&] { ASSERT_TRUE(a->Unlink("/d/a").ok()); }),
            "X");
  ExpectFsckClean();
}

// A's hint for /d/f names an inode B has since freed: the unlink retries
// without the hint and removes the file B created under the same name.
TEST_F(CoherenceTest, UnlinkWithStaleHintRemovesTheCurrentFile) {
  FrangipaniFs* a = cluster_->fs(0);
  FrangipaniFs* b = cluster_->fs(1);
  ASSERT_TRUE(a->Mkdir("/d").ok());
  StatusOr<uint64_t> mine = a->Create("/d/f");
  ASSERT_TRUE(mine.ok());
  ASSERT_TRUE(b->Unlink("/d/f").ok());
  StatusOr<uint64_t> theirs = b->Create("/d/f");
  ASSERT_TRUE(theirs.ok());
  ASSERT_NE(*mine, *theirs);
  const uint64_t stale_before = StaleHints();
  ASSERT_TRUE(a->Unlink("/d/f").ok());
  EXPECT_EQ(StaleHints(), stale_before + 1);
  EXPECT_EQ(b->Lookup("/d/f").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(b->StatIno(*theirs).status().code(), StatusCode::kNotFound);
  ExpectFsckClean();
}

// A's hint maps /d/f to an inode B has renamed to /d/g: phase two finds no
// /d/f entry, and the retry reports NotFound rather than running out of
// attempts.
TEST_F(CoherenceTest, UnlinkOfRenamedAwayNameIsNotFound) {
  FrangipaniFs* a = cluster_->fs(0);
  FrangipaniFs* b = cluster_->fs(1);
  ASSERT_TRUE(a->Mkdir("/d").ok());
  StatusOr<uint64_t> ino = a->Create("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(b->Rename("/d/f", "/d/g").ok());
  const uint64_t stale_before = StaleHints();
  EXPECT_EQ(a->Unlink("/d/f").code(), StatusCode::kNotFound);
  EXPECT_EQ(StaleHints(), stale_before + 1);
  StatusOr<uint64_t> g = a->Lookup("/d/g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, *ino);
  ExpectFsckClean();
}

// Phase one of create and link no longer looks at the leaf or the parent;
// phase two still reports an existing name and a parent that is a file, and
// its one request for the parent's lock is the exclusive one.
TEST_F(CoherenceTest, CreateErrorsComeFromPhaseTwo) {
  FrangipaniFs* a = cluster_->fs(0);
  FrangipaniFs* b = cluster_->fs(1);
  ASSERT_TRUE(a->Mkdir("/d").ok());
  StatusOr<uint64_t> d = a->Lookup("/d");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(b->Create("/d/f").ok());  // b holds /d exclusive
  EXPECT_EQ(LockRequestsDuring(cluster_.get(), 0, InodeLockId(*d),
                               [&] {
                                 EXPECT_EQ(a->Create("/d/f").status().code(),
                                           StatusCode::kAlreadyExists);
                               }),
            "X");
  EXPECT_EQ(a->Mkdir("/d/f").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(a->Symlink("/x", "/d/f").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(b->Create("/d/other").ok());
  EXPECT_EQ(a->Link("/d/other", "/d/f").code(), StatusCode::kAlreadyExists);

  StatusOr<uint64_t> file = b->Create("/file");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(LockRequestsDuring(cluster_.get(), 0, InodeLockId(*file),
                               [&] {
                                 EXPECT_EQ(a->Create("/file/x").status().code(),
                                           StatusCode::kNotFound);
                               }),
            "X");
  EXPECT_EQ(a->Mkdir("/file/x").code(), StatusCode::kNotFound);
  EXPECT_EQ(a->Link("/d/other", "/file/x").code(), StatusCode::kNotFound);
  EXPECT_EQ(a->Create("/nodir/x").status().code(), StatusCode::kNotFound);
  ExpectFsckClean();
}

TEST_F(CoherenceTest, ServerAdditionSeesExistingFiles) {
  ASSERT_TRUE(cluster_->fs(0)->Mkdir("/pre").ok());
  ASSERT_TRUE(cluster_->fs(0)->Create("/pre/existing").ok());
  auto node = cluster_->AddFrangipani();  // §7: bricks stack incrementally
  ASSERT_TRUE(node.ok()) << node.status();
  auto entries = (*node)->fs()->Readdir("/pre");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
  ASSERT_TRUE((*node)->fs()->Create("/pre/new").ok());
  entries = cluster_->fs(0)->Readdir("/pre");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(CoherenceTest, CleanServerRemovalNeedsNoRecovery) {
  ASSERT_TRUE(cluster_->fs(2)->Create("/by2").ok());
  ASSERT_TRUE(cluster_->node(2)->Unmount().ok());
  // Remaining servers continue unobstructed, immediately.
  ASSERT_TRUE(cluster_->fs(0)->Create("/after").ok());
  auto entries = cluster_->fs(0)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

}  // namespace
}  // namespace frangipani
