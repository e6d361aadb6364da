// What an unlink keeps and what it gives back (§4, §5): a freed file's
// inode stays cached and dirty, to be written home later by the sync demon
// or a revoke, while a freed large block is decommitted before the segment
// lock that freed it is released.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fs/device.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/fsck.h"
#include "src/fs/lock_provider.h"
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
  Status Decommit(uint64_t offset, uint64_t length) override {
    return inner_->Decommit(offset, length);
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
  Status Decommit(uint64_t offset, uint64_t length) override {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (armed_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lk, std::chrono::milliseconds(200), [&] { return open_; });
      }
    }
    return inner_->Decommit(offset, length);
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
    opts.fence_writes = false;
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

}  // namespace
}  // namespace frangipani
