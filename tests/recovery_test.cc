// Failure recovery (§4, §6, §7): crashed Frangipani servers, log replay by
// peers, lease expiry and mount poisoning, Petal server failures, lock
// server failures, and backup/restore (§8).
#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "src/fs/backup.h"
#include "src/fs/device.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/fsck.h"
#include "src/fs/lock_provider.h"
#include "src/fs/wal.h"
#include "src/obs/metrics.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

Bytes Pattern(size_t n, uint8_t seed = 7) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i * 131 + seed) & 0xFF);
  }
  return out;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void StartCluster(LockServiceKind kind, int frangipani_servers = 2) {
    ClusterOptions opts;
    opts.petal_servers = 3;
    opts.disks_per_petal = 2;
    opts.lock_kind = kind;
    opts.lease_duration = Duration(400'000);  // 0.4 s (scaled from 30 s)
    opts.node.log_flush_period = Duration(20'000);
    opts.node.sync_period = Duration(100'000);
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    for (int i = 0; i < frangipani_servers; ++i) {
      auto node = cluster_->AddFrangipani();
      ASSERT_TRUE(node.ok()) << node.status();
    }
  }

  FsckReport Fsck() {
    PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
    return RunFsck(&device, cluster_->geometry());
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(RecoveryTest, CrashedServersLoggedOpsSurviveViaPeerRecovery) {
  StartCluster(LockServiceKind::kDistributed);
  // Server 0 creates files; the log demon flushes records to Petal, but the
  // metadata blocks themselves may never be written before the crash.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->fs(0)->Create("/f" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cluster_->fs(0)->FlushLog().ok());
  ASSERT_TRUE(cluster_->CrashFrangipani(0).ok());
  // Server 1 touches the same locks; after the lease expires, the lock
  // service has server 1 replay server 0's log.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  auto entries = cluster_->fs(1)->Readdir("/");
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_EQ(entries->size(), 10u);
  ASSERT_TRUE(cluster_->fs(1)->SyncAll().ok());
  FsckReport report = Fsck();
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_F(RecoveryTest, UnloggedOpsAreLostButFsStaysConsistent) {
  StartCluster(LockServiceKind::kDistributed);
  NodeOptions no_demons;
  no_demons.start_demons = false;  // nothing flushes the log for us
  // (use a third server with demons disabled so nothing reaches Petal)
  auto node = cluster_->AddFrangipani(no_demons);
  ASSERT_TRUE(node.ok());
  ASSERT_TRUE((*node)->fs()->Create("/volatile").ok());
  ASSERT_TRUE(cluster_->CrashFrangipani(2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster_->CheckLeases();
  // The create never reached the log: it is simply gone.
  EXPECT_EQ(cluster_->fs(0)->Stat("/volatile").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cluster_->fs(0)->SyncAll().ok());
  FsckReport report = Fsck();
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_F(RecoveryTest, RestartedServerMountsFreshAndWorks) {
  StartCluster(LockServiceKind::kDistributed);
  ASSERT_TRUE(cluster_->fs(0)->Create("/before").ok());
  ASSERT_TRUE(cluster_->fs(0)->FlushLog().ok());
  ASSERT_TRUE(cluster_->CrashFrangipani(0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster_->CheckLeases();
  ASSERT_TRUE(cluster_->RestartFrangipani(0).ok());
  // The restarted server gets a fresh slot and sees the recovered state.
  EXPECT_TRUE(cluster_->fs(0)->Stat("/before").ok());
  EXPECT_TRUE(cluster_->fs(0)->Create("/after-restart").ok());
}

TEST_F(RecoveryTest, PartitionedServerPoisonsItself) {
  StartCluster(LockServiceKind::kDistributed);
  auto ino = cluster_->fs(0)->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, Pattern(4096)).ok());
  // Make the metadata updates recoverable (the log demon would do this
  // within 20 ms; do it explicitly so the test is deterministic).
  ASSERT_TRUE(cluster_->fs(0)->FlushLog().ok());
  cluster_->PartitionFrangipani(0, true);
  // Lease renewal fails; eventually the clerk declares the lease lost and
  // the file system poisons the mount (§6).
  for (int i = 0; i < 100 && !cluster_->fs(0)->poisoned(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(cluster_->fs(0)->poisoned());
  Bytes out;
  EXPECT_EQ(cluster_->fs(0)->Read(*ino, 0, 10, &out).status().code(),
            StatusCode::kStaleLease);
  EXPECT_EQ(cluster_->fs(0)->Create("/nope").status().code(), StatusCode::kStaleLease);
  // The rest of the cluster takes over after recovery.
  cluster_->PartitionFrangipani(0, false);  // heal: too late, lease is gone
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Status wst = cluster_->fs(1)->Write(*ino, 0, Pattern(4096, 2));
  ASSERT_TRUE(wst.ok()) << wst;
}

TEST_F(RecoveryTest, FencedWritesCannotCorruptAfterLeaseLoss) {
  StartCluster(LockServiceKind::kDistributed);
  auto ino = cluster_->fs(0)->Create("/fenced");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, Pattern(512, 1)).ok());
  ASSERT_TRUE(cluster_->fs(0)->SyncAll().ok());
  cluster_->PartitionFrangipani(0, true);
  for (int i = 0; i < 100 && !cluster_->fs(0)->poisoned(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(cluster_->fs(0)->poisoned());
  cluster_->PartitionFrangipani(0, false);
  // Server 1 takes the file over.
  ASSERT_TRUE(cluster_->fs(1)->Write(*ino, 0, Pattern(512, 2)).ok());
  // Even though the network healed, the zombie's writes are rejected by the
  // fence; its API surface is already poisoned as well.
  Bytes back;
  ASSERT_TRUE(cluster_->fs(1)->Read(*ino, 0, 512, &back).ok());
  EXPECT_EQ(back, Pattern(512, 2));
}

TEST_F(RecoveryTest, CentralizedLockServiceRecoversHolderCrash) {
  StartCluster(LockServiceKind::kCentralized);
  ASSERT_TRUE(cluster_->fs(0)->Create("/c1").ok());
  ASSERT_TRUE(cluster_->fs(0)->FlushLog().ok());
  ASSERT_TRUE(cluster_->CrashFrangipani(0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  auto entries = cluster_->fs(1)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(RecoveryTest, PrimaryBackupLockServiceSurvivesPrimaryCrash) {
  StartCluster(LockServiceKind::kPrimaryBackup);
  ASSERT_TRUE(cluster_->fs(0)->Create("/pb").ok());
  ASSERT_TRUE(cluster_->CrashLockServer(0).ok());
  // Clerks fail over to the backup, which takes over from Petal state.
  ASSERT_TRUE(cluster_->fs(1)->Create("/pb2").ok());
  auto entries = cluster_->fs(0)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(RecoveryTest, DistributedLockServiceSurvivesServerCrash) {
  StartCluster(LockServiceKind::kDistributed);
  ASSERT_TRUE(cluster_->fs(0)->Create("/d1").ok());
  ASSERT_TRUE(cluster_->CrashLockServer(2).ok());
  // Another lock server notices and proposes removal; groups reassign.
  for (int i = 0; i < 3; ++i) {
    cluster_->dist_policy(0)->FailureDetectTick(3);
  }
  // All lock traffic keeps working (clerks refresh the assignment).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_->fs(1)->Create("/post" + std::to_string(i)).ok()) << i;
  }
  auto entries = cluster_->fs(0)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 21u);
}

TEST_F(RecoveryTest, PetalServerCrashToleratedAndResynced) {
  StartCluster(LockServiceKind::kDistributed);
  auto ino = cluster_->fs(0)->Create("/pdata");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, Pattern(256 * 1024, 1)).ok());
  ASSERT_TRUE(cluster_->fs(0)->SyncAll().ok());
  ASSERT_TRUE(cluster_->CrashPetal(1).ok());
  // Reads and writes keep working through the surviving replicas.
  Bytes back;
  ASSERT_TRUE(cluster_->fs(1)->Read(*ino, 0, 256 * 1024, &back).ok());
  EXPECT_EQ(back, Pattern(256 * 1024, 1));
  ASSERT_TRUE(cluster_->fs(1)->Write(*ino, 0, Pattern(256 * 1024, 2)).ok());
  ASSERT_TRUE(cluster_->fs(1)->SyncAll().ok());
  // Restart resyncs missed writes before serving.
  ASSERT_TRUE(cluster_->RestartPetal(1).ok());
  ASSERT_TRUE(cluster_->fs(0)->Read(*ino, 0, 256 * 1024, &back).ok());
  EXPECT_EQ(back, Pattern(256 * 1024, 2));
}

TEST_F(RecoveryTest, WriteMarginRefusesLateWrites) {
  StartCluster(LockServiceKind::kDistributed, 1);
  // Stop renewing: the lease (0.4 s) runs down. Once less than lease/3
  // remains, mutating operations are refused BEFORE expiry (§6 margin).
  cluster_->node(0)->Crash();  // stops demons only; network stays up
  cluster_->net()->SetNodeUp(cluster_->frangipani_node(0), true);
  auto ino = cluster_->fs(0)->Create("/early");
  ASSERT_TRUE(ino.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(320));
  // Between margin and expiry: the op is fenced off client-side.
  Status st = cluster_->fs(0)->Write(*ino, 0, Pattern(512));
  EXPECT_EQ(st.code(), StatusCode::kStaleLease) << st;
}

// A refusal inside the write margin is counted by the site that refused:
// a metadata commit in fs.stale_lease.commit, an fsync in
// fs.stale_lease.fsync.
TEST(WriteMarginTest, RefusalsAreCountedBySite) {
  constexpr Duration kLease(1'200'000);  // margin lease/3: 0.4 s to refuse in
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.lease_duration = kLease;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* fs = cluster.fs(0);
  auto ino = fs->Create("/early");
  ASSERT_TRUE(ino.ok()) << ino.status();
  // Stop renewing and wait for the lease to run into the margin.
  cluster.node(0)->Crash();  // stops demons only
  cluster.net()->SetNodeUp(cluster.frangipani_node(0), true);
  LockClerk* clerk = cluster.node(0)->clerk();
  while (clerk->LeaseValidFor(kLease / 3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(clerk->LeaseValidFor(kLease / 6)) << "missed the margin window";
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  obs::Counter* commit = reg->GetCounter("fs.stale_lease.commit");
  obs::Counter* fsync = reg->GetCounter("fs.stale_lease.fsync");
  const uint64_t commit_before = commit->value();
  const uint64_t fsync_before = fsync->value();

  Status st = fs->Fsync(*ino);
  EXPECT_EQ(st.code(), StatusCode::kStaleLease) << st;
  EXPECT_EQ(fsync->value(), fsync_before + 1);
  EXPECT_EQ(commit->value(), commit_before);

  st = fs->Create("/late").status();
  EXPECT_EQ(st.code(), StatusCode::kStaleLease) << st;
  EXPECT_EQ(commit->value(), commit_before + 1);
  EXPECT_EQ(fsync->value(), fsync_before + 1);
}

// Waits for the next sample of `h` after `count` samples summing to `sum`
// and returns it; 0 if none comes within `timeout`.
double NextSample(Histogram* h, size_t count, double sum, Duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    // Record bumps the count before the sum; a sample is whole once both moved.
    if (h->count() == count + 1) {
      const double s = h->Sum();
      if (s != sum && h->count() == count + 1) {
        return s - sum;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return 0;
}

// The lease is granted when the clerk opens the lock table, before the file
// system mounts. A mount that takes half a renew period (its parameter-block
// read crosses a slow link to Petal) must still renew by one period after
// the grant: the first renewal finds at least lease - period - one round
// trip left, as every later one does.
TEST(MountLeaseTest, FirstRenewalComesWithinAPeriodOfTheGrant) {
  constexpr Duration kLease(1'500'000);
  constexpr Duration kPeriod = kLease / 3;   // the default renew period
  constexpr Duration kRoundTrip(50'000);     // a renewal's call, with slack for sanitizers
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.lease_duration = kLease;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  // One Petal call (request and reply) now takes half a renew period.
  for (NodeId petal : cluster.petal_nodes()) {
    cluster.net()->SetLinkParams(petal, LinkParams{.latency = kPeriod / 4});
  }

  Histogram* left =
      obs::MetricsRegistry::Default()->GetHistogram("lock.lease_left_at_renew_us");
  const size_t count = left->count();
  const double sum = left->Sum();
  auto node = cluster.AddFrangipani();
  ASSERT_TRUE(node.ok()) << node.status();
  const double first_us = NextSample(left, count, sum, 2 * kPeriod);
  ASSERT_GT(first_us, 0) << "no renewal within two renew periods of the mount";
  const double floor_us =
      std::chrono::duration<double, std::micro>(kLease - kPeriod - kRoundTrip).count();
  EXPECT_GE(first_us, floor_us) << "the first renewal came a renew period after the mount "
                                   "returned, not after the lease was granted";
}

// ---- §8 backup ----

TEST_F(RecoveryTest, BarrierSnapshotMountsCleanReadOnly) {
  StartCluster(LockServiceKind::kDistributed);
  auto ino = cluster_->fs(0)->Create("/snapfile");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(cluster_->fs(0)->Write(*ino, 0, Pattern(50 * 1024, 3)).ok());
  ASSERT_TRUE(cluster_->fs(1)->Mkdir("/snapdir").ok());

  // The backup process is its own lock-service client (§8): it opens the
  // table with its own clerk and requests the barrier lock exclusively,
  // which forces every Frangipani server to flush its dirty data.
  NodeId backup_node = cluster_->net()->AddNode("backup");
  LockClerk backup_clerk(cluster_->net(), backup_node, cluster_->lock_nodes(), cluster_->clock(),
                         LockClerk::Callbacks{});
  ASSERT_TRUE(backup_clerk.Open("fs").ok());
  ClerkLockProvider backup_provider(&backup_clerk);
  PetalClient backup_petal(cluster_->net(), backup_node, cluster_->petal_nodes());
  ASSERT_TRUE(backup_petal.RefreshMap().ok());
  LocalLocks backup_locks;  // lock provider for the read-only mount below
  auto snap = SnapshotWithBarrier(&backup_provider, &backup_petal, cluster_->vdisk());
  ASSERT_TRUE(snap.ok()) << snap.status();
  backup_clerk.Close();

  // Mutations continue after the barrier releases.
  ASSERT_TRUE(cluster_->fs(0)->Create("/after-snap").ok());

  // The snapshot needs NO recovery: fsck is clean as-is.
  PetalDevice snap_device(cluster_->admin_petal(), *snap);
  FsckReport report = RunFsck(&snap_device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();

  // Mount it read-only and read the data.
  FsOptions ro;
  ro.read_only = true;
  FrangipaniFs snap_fs(&snap_device, &backup_locks, SystemClock::Get(), ro);
  ASSERT_TRUE(snap_fs.Mount().ok());
  auto sino = snap_fs.Lookup("/snapfile");
  ASSERT_TRUE(sino.ok());
  Bytes back;
  ASSERT_TRUE(snap_fs.Read(*sino, 0, 50 * 1024, &back).ok());
  EXPECT_EQ(back, Pattern(50 * 1024, 3));
  // The snapshot does NOT contain post-snapshot changes.
  EXPECT_EQ(snap_fs.Stat("/after-snap").status().code(), StatusCode::kNotFound);
  // And refuses writes.
  EXPECT_EQ(snap_fs.Create("/x").status().code(), StatusCode::kPermissionDenied);
  ASSERT_TRUE(snap_fs.Unmount().ok());
}

TEST_F(RecoveryTest, CrashConsistentSnapshotRestoresViaLogRecovery) {
  StartCluster(LockServiceKind::kDistributed);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster_->fs(i % 2)->Create("/r" + std::to_string(i)).ok());
  }
  // Ensure the logs are in Petal but do NOT write back metadata: the
  // snapshot is crash-consistent, like a power failure (§8).
  ASSERT_TRUE(cluster_->fs(0)->FlushLog().ok());
  ASSERT_TRUE(cluster_->fs(1)->FlushLog().ok());
  auto snap = SnapshotCrashConsistent(cluster_->admin_petal(), cluster_->vdisk());
  ASSERT_TRUE(snap.ok());

  // Restore = clone + replay every log.
  auto restored = RestoreSnapshot(cluster_->admin_petal(), *snap, cluster_->geometry());
  ASSERT_TRUE(restored.ok()) << restored.status();
  PetalDevice restored_device(cluster_->admin_petal(), *restored);
  FsckReport report = RunFsck(&restored_device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();

  LocalLocks locks;
  FsOptions opts;
  FrangipaniFs restored_fs(&restored_device, &locks, SystemClock::Get(), opts);
  ASSERT_TRUE(restored_fs.Mount().ok());
  auto entries = restored_fs.Readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 8u);
  ASSERT_TRUE(restored_fs.Unmount().ok());
}

// ---- sync-log records (§4): each carries only the bytes its op changed ----

class SyncLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Geometry geometry;
    geometry.num_segments = 16;
    ASSERT_TRUE(FrangipaniFs::Mkfs(&device_, geometry).ok());
    FsOptions opts;
    opts.sync_log = true;
    fs_ = std::make_unique<FrangipaniFs>(&device_, &locks_, SystemClock::Get(), opts);
    ASSERT_TRUE(fs_->Mount().ok());
  }

  uint64_t Sectors() { return fs_->wal()->sectors_written(); }

  LocalDevice device_{1, PhysDiskParams{.timing_enabled = false}};
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;
};

// A create, a 1 KB write and an unlink change a few dozen bytes of each
// block they touch, so each forces a single log sector. Logging every
// rewritten inode whole took 3, 2 and 3.
TEST_F(SyncLogTest, CreateWriteAndUnlinkEachForceOneLogSector) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/d/first").ok());  // the directory's first block is logged whole
  uint64_t before = Sectors();
  auto ino = fs_->Create("/d/f");
  ASSERT_TRUE(ino.ok()) << ino.status();
  EXPECT_EQ(Sectors() - before, 1u) << "create";
  before = Sectors();
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(1024)).ok());
  EXPECT_EQ(Sectors() - before, 1u) << "1 KB write";
  before = Sectors();
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_EQ(Sectors() - before, 1u) << "unlink";
  ASSERT_TRUE(fs_->Unmount().ok());
}

// Every metadata op, then a crash that loses the whole cache: replaying the
// log alone must rebuild every block the ops changed, byte for byte.
TEST_F(SyncLogTest, ReplayRebuildsEveryCommittedBlockExactly) {
  fs_->HoldDecommits(true);  // the truncate's freed large block stays marked
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Mkdir("/e").ok());
  ASSERT_TRUE(fs_->Mkdir("/e/gone").ok());
  auto f = fs_->Create("/d/f");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_TRUE(fs_->Symlink("/d/f", "/d/s").ok());
  ASSERT_TRUE(fs_->Link("/d/f", "/e/l").ok());
  ASSERT_TRUE(fs_->Link("/d/f", "/d/l2").ok());
  // 64 KB of small blocks, then 64 KB in the large block.
  ASSERT_TRUE(fs_->Write(*f, 0, Pattern(128 << 10)).ok());
  auto g = fs_->Create("/d/g");
  ASSERT_TRUE(g.ok()) << g.status();
  ASSERT_TRUE(fs_->Write(*g, 0, Pattern(1000, 3)).ok());
  ASSERT_TRUE(fs_->Truncate(*f, 5000).ok());  // frees 15 small blocks and the large one
  ASSERT_TRUE(fs_->Rename("/d/g", "/e/g").ok());
  ASSERT_TRUE(fs_->Rename("/e/l", "/d/s").ok());  // replaces the symlink
  ASSERT_TRUE(fs_->Unlink("/d/l2").ok());
  ASSERT_TRUE(fs_->Rmdir("/e/gone").ok());
  ASSERT_TRUE(fs_->Create("/e/h").ok());
  ASSERT_TRUE(fs_->Unlink("/e/h").ok());

  const Geometry geometry = fs_->geometry();
  Bytes region;
  ASSERT_TRUE(device_.Read(geometry.LogAddr(locks_.slot()), geometry.log_bytes, &region).ok());
  std::map<uint64_t, Bytes> committed;  // block address -> the node's image
  for (const LogRecord& rec : ParseLogStream(region, geometry.log_bytes / kLogSectorSize)) {
    for (const LogBlockUpdate& u : rec.updates) {
      auto image = fs_->cache()->Read(u.addr, BlockKindSize(u.kind), /*lock=*/0);
      ASSERT_TRUE(image.ok()) << image.status();
      committed[u.addr] = *image;
    }
  }
  ASSERT_GE(committed.size(), 10u);
  size_t stale_on_disk = 0;
  for (const auto& [addr, image] : committed) {
    Bytes disk;
    ASSERT_TRUE(device_.Read(addr, image.size(), &disk).ok());
    stale_on_disk += disk != image ? 1 : 0;
  }
  EXPECT_GT(stale_on_disk, 0u) << "every block was written home: the replay proves nothing";

  fs_->OnLeaseLost();  // the crash: the cache goes without write-back
  auto applied = ReplayLog(&device_, geometry, locks_.slot(), 0);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_GT(*applied, 0u);
  for (const auto& [addr, image] : committed) {
    Bytes disk;
    ASSERT_TRUE(device_.Read(addr, image.size(), &disk).ok());
    EXPECT_EQ(disk, image) << "block at " << addr << " differs after replay";
  }
  fs_.reset();
  FsckReport report = RunFsck(&device_, geometry);
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Enough ops to wrap the log several times, in one directory whose blocks
// every op changes again. The log may reuse a record's space only once the
// disk holds the blocks it updated, even those that later records changed
// again: those records are diffs against the image it left.
TEST_F(SyncLogTest, ReplayAfterTheLogWrappedRebuildsEveryCommittedBlock) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  for (int i = 0; i < 1200; ++i) {
    ASSERT_TRUE(fs_->Create("/d/f" + std::to_string(i)).ok()) << i;
    if (i % 3 == 2) {
      ASSERT_TRUE(fs_->Unlink("/d/f" + std::to_string(i - 1)).ok()) << i;
    }
  }
  const Geometry geometry = fs_->geometry();
  ASSERT_GT(fs_->wal()->sectors_written(), 3u * geometry.log_bytes / kLogSectorSize);
  Bytes region;
  ASSERT_TRUE(device_.Read(geometry.LogAddr(locks_.slot()), geometry.log_bytes, &region).ok());
  std::map<uint64_t, Bytes> committed;
  for (const LogRecord& rec : ParseLogStream(region, geometry.log_bytes / kLogSectorSize)) {
    for (const LogBlockUpdate& u : rec.updates) {
      auto image = fs_->cache()->Read(u.addr, BlockKindSize(u.kind), /*lock=*/0);
      ASSERT_TRUE(image.ok()) << image.status();
      committed[u.addr] = *image;
    }
  }
  fs_->OnLeaseLost();
  ASSERT_TRUE(ReplayLog(&device_, geometry, locks_.slot(), 0).ok());
  size_t wrong = 0;
  for (const auto& [addr, image] : committed) {
    Bytes disk;
    ASSERT_TRUE(device_.Read(addr, image.size(), &disk).ok());
    wrong += disk != image ? 1 : 0;
  }
  EXPECT_EQ(wrong, 0u) << "of " << committed.size() << " blocks";
  fs_.reset();
  FsckReport report = RunFsck(&device_, geometry);
  EXPECT_TRUE(report.ok) << report.Summary();
}

}  // namespace
}  // namespace frangipani
