// What an unlink keeps and what it gives back (§3, §4, §5): a freed file's
// inode stays cached and dirty, to be written home later by the sync demon
// or a revoke, while a freed large block stays allocated behind a logged
// pending-decommit marker until the decommit worker has returned its chunks
// to Petal. A crash leaves the marker for whichever server next reads it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fs/alloc.h"
#include "src/fs/backup.h"
#include "src/fs/decommit_worker.h"
#include "src/fs/device.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/fsck.h"
#include "src/fs/lock_provider.h"
#include "src/obs/metrics.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

Bytes Pattern(size_t n, uint8_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i * 131 + seed) & 0xFF);
  }
  return out;
}

// Records the extent of every read and write that reaches the device.
class CountingDevice : public BlockDevice {
 public:
  explicit CountingDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    {
      std::lock_guard<std::mutex> guard(mu_);
      reads_.emplace_back(offset, length);
    }
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    {
      std::lock_guard<std::mutex> guard(mu_);
      writes_.emplace_back(offset, data.size());
    }
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  void Reset() {
    std::lock_guard<std::mutex> guard(mu_);
    reads_.clear();
    writes_.clear();
  }
  size_t reads() {
    std::lock_guard<std::mutex> guard(mu_);
    return reads_.size();
  }
  bool WroteAt(uint64_t addr) {
    std::lock_guard<std::mutex> guard(mu_);
    for (const auto& [off, len] : writes_) {
      if (off <= addr && addr < off + len) {
        return true;
      }
    }
    return false;
  }

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::vector<std::pair<uint64_t, uint64_t>> reads_;
  std::vector<std::pair<uint64_t, uint64_t>> writes_;
};

// Holds every Decommit until the test opens the gate or 200 ms pass.
class GatedDevice : public BlockDevice {
 public:
  explicit GatedDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (armed_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lk, std::chrono::milliseconds(200), [&] { return open_; });
      }
    }
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  void Arm() {
    std::lock_guard<std::mutex> guard(mu_);
    armed_ = true;
  }
  bool WaitEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(5), [&] { return entered_; });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
  bool open_ = false;
};

constexpr size_t kLargeBytes = 128 << 10;  // two chunks of the large region

class LocalFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    geometry_.num_segments = 16;
    ASSERT_TRUE(FrangipaniFs::Mkfs(&disk_, geometry_).ok());
  }

  void MountOn(BlockDevice* device, bool sync_log) {
    FsOptions opts;
    opts.sync_log = sync_log;
    fs_ = std::make_unique<FrangipaniFs>(device, &locks_, SystemClock::Get(), opts);
    ASSERT_TRUE(fs_->Mount().ok());
  }

  LocalDevice disk_{1, PhysDiskParams{.timing_enabled = false}};
  CountingDevice counting_{&disk_};
  GatedDevice gate_{&disk_};
  Geometry geometry_;
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;  // destroyed first: it unmounts onto the devices
};

// Unlink leaves the freed inode to the cache; the create that reuses the
// inode finds everything it reads there.
TEST_F(LocalFsTest, UnlinkKeepsFreedInodeCachedForTheNextCreate) {
  CountingDevice& device = counting_;
  MountOn(&device, /*sync_log=*/true);
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto ino = fs_->Create("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Pattern(1024, 1)).ok());
  ASSERT_TRUE(fs_->SyncAll().ok());

  device.Reset();
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_FALSE(device.WroteAt(geometry_.InodeAddr(*ino)))
      << "unlink wrote the freed inode home";

  device.Reset();
  auto again = fs_->Create("/d/g");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *ino);
  EXPECT_EQ(device.reads(), 0u) << "create read from the device";

  // The sync demon's work writes the inode home; the result checks clean.
  ASSERT_TRUE(fs_->Unlink("/d/g").ok());
  ASSERT_TRUE(fs_->Unmount().ok());
  FsckReport report = RunFsck(&disk_, geometry_);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 0u);
}

// Thread A frees /big's large block while thread B allocates one and
// writes it. A's decommit must happen before B can reallocate the block,
// or it drops B's new chunks.
class DecommitRaceTest : public LocalFsTest {
 protected:
  void Race(const std::function<Status(uint64_t big)>& free_big) {
    MountOn(&gate_, /*sync_log=*/false);
    auto big = fs_->Create("/big");
    ASSERT_TRUE(big.ok());
    ASSERT_TRUE(fs_->Write(*big, kSmallBytesPerFile, Pattern(kLargeBytes, 3)).ok());
    ASSERT_TRUE(fs_->Fsync(*big).ok());

    gate_.Arm();
    Status a_status;
    std::thread a([&] { a_status = free_big(*big); });
    if (!gate_.WaitEntered()) {
      a.join();
      FAIL() << "freeing /big decommitted nothing";
    }
    const Bytes data = Pattern(kLargeBytes, 9);
    uint64_t fresh = 0;
    Status b_status;
    std::thread b([&] {
      StatusOr<uint64_t> ino = fs_->Create("/new");
      b_status = ino.status();
      if (b_status.ok()) {
        fresh = *ino;
        b_status = fs_->Write(fresh, kSmallBytesPerFile, data);
      }
      if (b_status.ok()) {
        b_status = fs_->Fsync(fresh);
      }
    });
    b.join();
    gate_.Open();
    a.join();
    ASSERT_TRUE(a_status.ok()) << a_status;
    ASSERT_TRUE(b_status.ok()) << b_status;

    ASSERT_TRUE(fs_->DropCaches().ok());
    Bytes back;
    StatusOr<size_t> n = fs_->Read(fresh, kSmallBytesPerFile, kLargeBytes, &back);
    ASSERT_TRUE(n.ok()) << n.status();
    ASSERT_EQ(*n, kLargeBytes);
    EXPECT_TRUE(back == data) << "the new file's chunks were decommitted";
    ASSERT_TRUE(fs_->Unmount().ok());
    FsckReport report = RunFsck(&disk_, geometry_);
    EXPECT_TRUE(report.ok) << report.Summary();
  }
};

TEST_F(DecommitRaceTest, UnlinkDecommitsBeforeTheBlockCanBeReallocated) {
  Race([&](uint64_t) { return fs_->Unlink("/big"); });
}

TEST_F(DecommitRaceTest, TruncateDecommitsBeforeTheBlockCanBeReallocated) {
  Race([&](uint64_t big) { return fs_->Truncate(big, 0); });
}

// Two servers: a revoke writes the freed inode home for the other server,
// and a crash before the sync demon runs recovers from the log alone.
TEST(FreedInodeClusterTest, PeersSeeTheFreeAndCrashRecoveryIsClean) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.lease_duration = Duration(400'000);  // 0.4 s (scaled from 30 s)
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  NodeOptions a_opts;
  a_opts.fs.sync_log = true;
  a_opts.sync_period = Duration(3600'000'000);  // the sync demon never runs
  ASSERT_TRUE(cluster.AddFrangipani(a_opts).ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* a = cluster.fs(0);
  FrangipaniFs* b = cluster.fs(1);

  ASSERT_TRUE(a->Mkdir("/d").ok());
  auto ino = a->Create("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(a->Write(*ino, 0, Pattern(1024, 5)).ok());
  ASSERT_TRUE(a->Unlink("/d/f").ok());
  EXPECT_EQ(b->StatIno(*ino).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(a->Create("/d/g").ok());
  ASSERT_TRUE(a->Unlink("/d/g").ok());
  ASSERT_TRUE(cluster.CrashFrangipani(0).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.CheckLeases();
  EXPECT_EQ(b->Stat("/d/g").status().code(), StatusCode::kNotFound);
  auto entries = b->Readdir("/d");
  ASSERT_TRUE(entries.ok()) << entries.status();
  EXPECT_TRUE(entries->empty());
  ASSERT_TRUE(b->SyncAll().ok());
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 0u);
}

// The worker's revoke rule on its own: a revoke of the segment being
// visited waits while the visit's calls are in flight and marks the visit
// revoked (so it does not clear the markers as read). A revoke of another
// segment does not wait, and the next visit starts unrevoked.
TEST(DecommitWorkerTest, RevokeWaitsForCallsInFlightAndMarksTheVisitRevoked) {
  std::mutex mu;
  std::condition_variable cv;
  int visits = 0;
  bool sending = false;
  bool release = false;
  std::vector<bool> saw_revoked;
  DecommitWorker* worker_ptr = nullptr;
  DecommitWorker worker(
      [&](uint32_t, bool) {
        std::unique_lock<std::mutex> lk(mu);
        if (++visits == 1) {
          worker_ptr->BeginSending();
          sending = true;
          cv.notify_all();
          cv.wait(lk, [&] { return release; });
          worker_ptr->EndSending();
        }
        saw_revoked.push_back(worker_ptr->Revoked());
        cv.notify_all();
      },
      /*node=*/0);
  worker_ptr = &worker;
  worker.Add(7, /*own=*/true);
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(5), [&] { return sending; }));
  }
  std::atomic<bool> revoked{false};
  std::thread revoker([&] {
    worker.OnSegmentRevoked(7);
    revoked = true;
  });
  worker.OnSegmentRevoked(8);  // not the segment in flight: returns at once
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(revoked.load()) << "the revoke did not wait for the calls in flight";
  {
    std::lock_guard<std::mutex> guard(mu);
    release = true;
  }
  cv.notify_all();
  revoker.join();
  worker.Add(7, /*own=*/true);
  worker.Drain();
  std::lock_guard<std::mutex> guard(mu);
  EXPECT_EQ(saw_revoked, (std::vector<bool>{true, false}));
}

StatusOr<Inode> LoadInode(BlockDevice* device, const Geometry& geo, uint64_t ino) {
  Bytes raw;
  RETURN_IF_ERROR(device->Read(geo.InodeAddr(ino), kInodeSize, &raw));
  return Inode::Decode(raw);
}

// A server crashes after an unlink whose decommit it never ran. The peer
// that recovers its log leaves the marker in place (fsck accepts it); the
// peer's next large allocation from the segment finishes it, and a sparse
// file later given the same block reads zeros in its hole, not the dead
// file's chunks.
TEST(DeferredDecommitClusterTest, MarkerLeftByACrashIsFinishedByAPeer) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.lease_duration = Duration(400'000);  // 0.4 s (scaled from 30 s)
  opts.geometry.num_segments = 1;           // both servers allocate from segment 0
  Cluster cluster(opts);
  Status st = cluster.Start();
  ASSERT_TRUE(st.ok()) << st;
  NodeOptions a_opts;
  a_opts.fs.sync_log = true;  // the unlink's record is durable when it returns
  a_opts.sync_period = Duration(3600'000'000);
  st = cluster.AddFrangipani(a_opts).status();
  ASSERT_TRUE(st.ok()) << st;
  st = cluster.AddFrangipani().status();
  ASSERT_TRUE(st.ok()) << st;
  FrangipaniFs* a = cluster.fs(0);
  FrangipaniFs* b = cluster.fs(1);
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  const Geometry& geo = cluster.geometry();

  auto big = a->Create("/big");
  ASSERT_TRUE(big.ok()) << big.status();
  st = a->Write(*big, 0, Pattern(2 << 20, 7));
  ASSERT_TRUE(st.ok()) << st;
  st = a->SyncAll();
  ASSERT_TRUE(st.ok()) << st;
  auto big_inode = LoadInode(&device, geo, *big);
  ASSERT_TRUE(big_inode.ok()) << big_inode.status();
  const uint64_t large = big_inode->large;
  ASSERT_NE(large, 0u);

  a->HoldDecommits(true);
  st = a->Unlink("/big");
  ASSERT_TRUE(st.ok()) << st;
  st = cluster.CrashFrangipani(0);
  ASSERT_TRUE(st.ok()) << st;
  a->HoldDecommits(false);  // the crashed server reaches nobody
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.CheckLeases();
  ASSERT_EQ(b->Stat("/big").status().code(), StatusCode::kNotFound);

  Bytes seg;
  st = device.Read(geo.SegmentAddr(0), kBlockSize, &seg);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(SegPendingGet(seg, LargeLocal(large)), 31u);  // (2 MB - 64 KB) / 64 KB
  FsckReport report = RunFsck(&device, geo);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 0u);
  EXPECT_EQ(report.large_blocks_pending_decommit, 1u);

  obs::Counter* adopted = obs::MetricsRegistry::Default()->GetCounter("fs.decommit.adopted");
  const uint64_t adopted_before = adopted->value();
  auto other = b->Create("/other");
  ASSERT_TRUE(other.ok()) << other.status();
  st = b->Write(*other, kSmallBytesPerFile, Pattern(4096, 1));
  ASSERT_TRUE(st.ok()) << st;
  st = b->SyncAll();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(adopted->value(), adopted_before + 1);
  st = device.Read(geo.SegmentAddr(0), kBlockSize, &seg);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(SegPendingGet(seg, LargeLocal(large)), 0u);
  EXPECT_FALSE(SegBitGet(seg, LargeBit(large)));
  report = RunFsck(&device, geo);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.large_blocks_pending_decommit, 0u);

  auto sparse = b->Create("/sparse");
  ASSERT_TRUE(sparse.ok()) << sparse.status();
  constexpr uint64_t kHole = 1 << 20;
  st = b->Write(*sparse, kSmallBytesPerFile + kHole, Pattern(4096, 2));
  ASSERT_TRUE(st.ok()) << st;
  st = b->SyncAll();
  ASSERT_TRUE(st.ok()) << st;
  auto sparse_inode = LoadInode(&device, geo, *sparse);
  ASSERT_TRUE(sparse_inode.ok()) << sparse_inode.status();
  ASSERT_EQ(sparse_inode->large, large) << "the sparse file got another block";
  st = b->DropCaches();
  ASSERT_TRUE(st.ok()) << st;
  Bytes hole;
  auto n = b->Read(*sparse, kSmallBytesPerFile, kHole, &hole);
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_EQ(*n, kHole);
  EXPECT_TRUE(std::all_of(hole.begin(), hole.end(), [](uint8_t v) { return v == 0; }))
      << "the hole shows the unlinked file's chunks";
}

// The backup barrier's flush waits for queued decommits. The worker clears
// its markers under the segment lock alone, never the barrier, so it can
// finish while the barrier is being revoked, and the snapshot holds no
// marker.
TEST(DeferredDecommitClusterTest, BackupBarrierWaitsForAPendingDecommit) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* a = cluster.fs(0);
  auto big = a->Create("/big");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(a->Write(*big, 0, Pattern(256 << 10, 4)).ok());
  ASSERT_TRUE(a->Fsync(*big).ok());
  a->HoldDecommits(true);
  ASSERT_TRUE(a->Unlink("/big").ok());

  NodeId backup_node = cluster.net()->AddNode("backup");
  LockClerk backup_clerk(cluster.net(), backup_node, cluster.lock_nodes(), cluster.clock(),
                         LockClerk::Callbacks{});
  ASSERT_TRUE(backup_clerk.Open("fs").ok());
  ClerkLockProvider backup_locks(&backup_clerk);
  PetalClient backup_petal(cluster.net(), backup_node, cluster.petal_nodes());
  ASSERT_TRUE(backup_petal.RefreshMap().ok());
  auto snap = std::async(std::launch::async, [&] {
    return SnapshotWithBarrier(&backup_locks, &backup_petal, cluster.vdisk());
  });
  EXPECT_EQ(snap.wait_for(std::chrono::milliseconds(200)), std::future_status::timeout)
      << "the barrier did not wait for the held decommit";
  a->HoldDecommits(false);
  ASSERT_EQ(snap.wait_for(std::chrono::seconds(20)), std::future_status::ready)
      << "barrier and decommit worker deadlocked";
  StatusOr<VdiskId> id = snap.get();
  ASSERT_TRUE(id.ok()) << id.status();
  PetalDevice snapshot(&backup_petal, *id);
  FsckReport report = RunFsck(&snapshot, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 0u);
  EXPECT_EQ(report.large_blocks_pending_decommit, 0u);
  backup_clerk.Close();
}

// Pauses, while armed, every read that covers one address and every
// Decommit, each until the test lets it through (or 10 s pass).
class PausingDevice : public BlockDevice {
 public:
  PausingDevice(BlockDevice* inner, uint64_t read_addr) : inner_(inner), read_addr_(read_addr) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    if (offset <= read_addr_ && read_addr_ < offset + length) {
      Pause(&read_);
    }
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    Pause(&decommit_);
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  struct Gate {
    bool armed = false;
    bool entered = false;
    bool open = false;
  };
  Gate read_;
  Gate decommit_;

  void Arm() {
    std::lock_guard<std::mutex> guard(mu_);
    read_.armed = decommit_.armed = true;
  }
  bool WaitEntered(Gate* gate) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(10), [&] { return gate->entered; });
  }
  void Open(Gate* gate) {
    std::lock_guard<std::mutex> guard(mu_);
    gate->open = true;
    cv_.notify_all();
  }

 private:
  void Pause(Gate* gate) {
    std::unique_lock<std::mutex> lk(mu_);
    if (gate->armed) {
      gate->entered = true;
      cv_.notify_all();
      cv_.wait_for(lk, std::chrono::seconds(10), [&] { return gate->open; });
    }
  }

  BlockDevice* inner_;
  uint64_t read_addr_;
  std::mutex mu_;
  std::condition_variable cv_;
};

// Server b takes the segment lock while a's worker reads the markers under
// it. The revoke waits, once the read is done, for a's decommit: until that
// call has landed, b cannot finish the same marker, reuse the block and
// have the late call drop its new chunks. b's op writes 64 KB into the
// large region if `peer_writes_large` (its allocation sees the marker and
// b's worker visits it too), else 4 KB of small blocks (only a finishes
// the marker: it must do so though it lost the lock after the read).
void RevokeDuringTheMarkerRead(bool peer_writes_large) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.geometry.num_segments = 1;  // both servers allocate from segment 0
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* b = cluster.fs(0);
  const Geometry& geo = cluster.geometry();

  // Server a is wired by hand so that its device can pause.
  NodeId a_node = cluster.net()->AddNode("a");
  PetalClient a_petal(cluster.net(), a_node, cluster.petal_nodes());
  ASSERT_TRUE(a_petal.RefreshMap().ok());
  PetalDevice a_disk(&a_petal, cluster.vdisk());
  PausingDevice a_device(&a_disk, geo.SegmentAddr(0));
  std::atomic<FrangipaniFs*> a_fs{nullptr};
  LockClerk::Callbacks callbacks;
  callbacks.on_revoke = [&](LockId lock, LockMode mode, LockRange range) {
    if (FrangipaniFs* fs = a_fs.load()) {
      fs->OnLockRevoked(lock, mode, range);
    }
  };
  LockClerk a_clerk(cluster.net(), a_node, cluster.lock_nodes(), cluster.clock(),
                    std::move(callbacks));
  ASSERT_TRUE(a_clerk.Open("fs").ok());
  ClerkLockProvider a_locks(&a_clerk);
  FsOptions a_opts;
  a_opts.node_id = a_node;
  auto a = std::make_unique<FrangipaniFs>(&a_device, &a_locks, cluster.clock(), a_opts);
  a_fs = a.get();
  ASSERT_TRUE(a->Mount().ok());

  auto big = a->Create("/big");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(a->Write(*big, 0, Pattern(2 << 20, 5)).ok());
  ASSERT_TRUE(a->SyncAll().ok());
  a->HoldDecommits(true);
  ASSERT_TRUE(a->Unlink("/big").ok());
  // b takes the segment lock, so a's visit must read the segment block
  // from the device, where it pauses holding the lock.
  ASSERT_TRUE(b->Create("/small").ok());
  a_device.Arm();
  a->HoldDecommits(false);
  ASSERT_TRUE(a_device.WaitEntered(&a_device.read_));

  obs::Counter* revokes = obs::MetricsRegistry::Default()->GetCounter("lock.revoke.count");
  const uint64_t revokes_before = revokes->value();
  const uint64_t offset = peer_writes_large ? kSmallBytesPerFile : 0;
  const Bytes data = Pattern(peer_writes_large ? 64 << 10 : 4 << 10, 6);
  auto other = std::async(std::launch::async, [&]() -> Status {
    ASSIGN_OR_RETURN(uint64_t ino, b->Create("/other"));
    return b->Write(ino, offset, data);
  });
  for (int i = 0; i < 1000 && revokes->value() == revokes_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(revokes->value(), revokes_before) << "b's create revoked nothing";
  a_device.Open(&a_device.read_);
  ASSERT_TRUE(a_device.WaitEntered(&a_device.decommit_));
  EXPECT_EQ(other.wait_for(std::chrono::milliseconds(300)), std::future_status::timeout)
      << "the revoke gave the segment lock away while a's decommit was unsent";
  a_device.Open(&a_device.decommit_);
  ASSERT_EQ(other.wait_for(std::chrono::seconds(20)), std::future_status::ready);
  ASSERT_TRUE(other.get().ok());

  ASSERT_TRUE(a->SyncAll().ok());
  ASSERT_TRUE(b->SyncAll().ok());
  ASSERT_TRUE(b->DropCaches().ok());
  auto ino = b->Stat("/other");
  ASSERT_TRUE(ino.ok());
  Bytes got;
  auto n = b->Read(ino->ino, offset, data.size(), &got);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(got, data);
  ASSERT_TRUE(a->Unmount().ok());
  a_fs = nullptr;
  a_clerk.DropIdle(Duration(0));
  a_clerk.Close();
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, geo);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.large_blocks_pending_decommit, 0u);
}

TEST(DeferredDecommitClusterTest, RevokeDuringTheMarkerReadWaitsForTheDecommit) {
  RevokeDuringTheMarkerRead(/*peer_writes_large=*/true);
}

TEST(DeferredDecommitClusterTest, VisitThatLostTheLockStillFinishesTheMarker) {
  RevokeDuringTheMarkerRead(/*peer_writes_large=*/false);
}

}  // namespace
}  // namespace frangipani
