// Fsync ordering (§4): file data is never logged, so it is unordered
// against the log and goes out while the log is being written; the inode,
// which the log describes, reaches the disk only after its log write. Data
// that fsync returned for survives the writer's crash, and a background
// flush that fails is counted, not dropped.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

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

// Once armed, holds every write to the log region until the test opens the
// gate or 2 s pass, and records each other write with whether a log write
// had completed before it was issued.
class LogGatedDevice : public BlockDevice {
 public:
  struct Seen {
    uint64_t offset;
    uint64_t length;
    bool after_log;
  };

  LogGatedDevice(BlockDevice* inner, const Geometry& geometry)
      : inner_(inner),
        log_begin_(geometry.log_base),
        log_end_(geometry.log_base + uint64_t{geometry.num_logs} * geometry.log_stride) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    if (offset < log_begin_ || offset >= log_end_) {
      {
        std::lock_guard<std::mutex> guard(mu_);
        if (armed_) {
          writes_.push_back({offset, data.size(), log_done_});
          cv_.notify_all();
        }
      }
      return inner_->Write(offset, data, lease_expiry_us);
    }
    bool held = false;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (armed_) {
        held = true;
        log_entered_ = true;
        cv_.notify_all();
        cv_.wait_for(lk, std::chrono::seconds(2), [&] { return open_; });
      }
    }
    Status st = inner_->Write(offset, data, lease_expiry_us);
    if (held) {
      std::lock_guard<std::mutex> guard(mu_);
      log_done_ = true;
    }
    return st;
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  void Arm() {
    std::lock_guard<std::mutex> guard(mu_);
    armed_ = true;
  }
  bool WaitLogEntered() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(5), [&] { return log_entered_; });
  }
  // True once a write at or past `addr` reaches the device, within 1 s.
  bool WaitWriteFrom(uint64_t addr) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(1), [&] {
      for (const Seen& w : writes_) {
        if (w.offset >= addr) {
          return true;
        }
      }
      return false;
    });
  }
  void Open() {
    std::lock_guard<std::mutex> guard(mu_);
    open_ = true;
    cv_.notify_all();
  }
  std::vector<Seen> writes() {
    std::lock_guard<std::mutex> guard(mu_);
    return writes_;
  }

 private:
  BlockDevice* inner_;
  const uint64_t log_begin_;
  const uint64_t log_end_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool log_entered_ = false;
  bool log_done_ = false;
  bool open_ = false;
  std::vector<Seen> writes_;
};

TEST(FsyncOrderTest, DataGoesOutWithTheLogAndTheInodeAfterIt) {
  LocalDevice disk(1, PhysDiskParams{.timing_enabled = false});
  Geometry geometry;
  geometry.num_segments = 16;
  ASSERT_TRUE(FrangipaniFs::Mkfs(&disk, geometry).ok());
  LogGatedDevice gate(&disk, geometry);
  LocalLocks locks;
  FsOptions opts;
  opts.sync_log = false;
  auto fs = std::make_unique<FrangipaniFs>(&gate, &locks, SystemClock::Get(), opts);
  ASSERT_TRUE(fs->Mount().ok());

  auto ino = fs->Create("/f");
  ASSERT_TRUE(ino.ok());
  // 64 KB of small blocks, then 192 KB in the large block.
  const Bytes data = Pattern(256 << 10, 7);
  ASSERT_TRUE(fs->Write(*ino, 0, data).ok());

  gate.Arm();
  Status fsync_status;
  std::thread fsync([&] { fsync_status = fs->Fsync(*ino); });
  ASSERT_TRUE(gate.WaitLogEntered()) << "fsync wrote no log";
  const bool data_beside_log = gate.WaitWriteFrom(geometry.large_base);
  gate.Open();
  fsync.join();
  ASSERT_TRUE(fsync_status.ok()) << fsync_status;
  EXPECT_TRUE(data_beside_log) << "fsync's data waited behind its log write";

  const uint64_t inode_addr = geometry.InodeAddr(*ino);
  bool inode_written = false;
  for (const LogGatedDevice::Seen& w : gate.writes()) {
    if (w.offset <= inode_addr && inode_addr < w.offset + w.length) {
      inode_written = true;
      EXPECT_TRUE(w.after_log) << "the inode reached the disk before its log record";
    }
  }
  EXPECT_TRUE(inode_written) << "fsync did not write the inode";

  ASSERT_TRUE(fs->Unmount().ok());
  fs.reset();
  FsckReport report = RunFsck(&disk, geometry);
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Server A fsyncs a 1 MB file and crashes with no sync demon or log demon
// having run. Server B recovers A's log and reads the file back whole.
TEST(FsyncOrderTest, FsyncedDataSurvivesACrash) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  constexpr Duration kLease(400'000);  // 0.4 s (scaled from 30 s)
  opts.lease_duration = kLease;
  Cluster cluster(opts);
  Status st = cluster.Start();
  ASSERT_TRUE(st.ok()) << st;
  NodeOptions a_opts;
  a_opts.sync_period = Duration(3600'000'000);       // the demons never run
  a_opts.log_flush_period = Duration(3600'000'000);
  st = cluster.AddFrangipani(a_opts).status();
  ASSERT_TRUE(st.ok()) << st;
  st = cluster.AddFrangipani().status();
  ASSERT_TRUE(st.ok()) << st;
  FrangipaniFs* a = cluster.fs(0);
  FrangipaniFs* b = cluster.fs(1);

  constexpr size_t kSize = 1 << 20;
  const Bytes data = Pattern(kSize, 11);
  st = a->Mkdir("/d");
  ASSERT_TRUE(st.ok()) << st;
  auto ino = a->Create("/d/f");
  ASSERT_TRUE(ino.ok()) << ino.status();
  st = a->Write(*ino, 0, data);
  ASSERT_TRUE(st.ok()) << st;
  st = a->Fsync(*ino);
  ASSERT_TRUE(st.ok()) << st;
  st = cluster.CrashFrangipani(0);
  ASSERT_TRUE(st.ok()) << st;
  std::this_thread::sleep_for(kLease + std::chrono::milliseconds(100));  // a's lease lapses
  cluster.CheckLeases();

  auto attr = b->Stat("/d/f");
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(attr->size, kSize);
  Bytes back;
  auto n = b->Read(*ino, 0, kSize, &back);
  ASSERT_TRUE(n.ok()) << n.status();
  ASSERT_EQ(*n, kSize);
  EXPECT_TRUE(back == data) << "fsynced bytes lost in the crash";
  st = b->SyncAll();
  ASSERT_TRUE(st.ok()) << st;
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 1u);
}

// Fails every write while `failing` is set.
class FailingDevice : public BlockDevice {
 public:
  explicit FailingDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    return inner_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    if (failing.load()) {
      return Unavailable("injected write failure");
    }
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  std::atomic<bool> failing{false};

 private:
  BlockDevice* inner_;
};

// The backup barrier's flush has no caller to hand an error to: its failure
// lands in fs.sync.errors, and the dirty data survives for a later flush.
TEST(FsyncOrderTest, FailedBarrierFlushIsCounted) {
  LocalDevice disk(1, PhysDiskParams{.timing_enabled = false});
  Geometry geometry;
  geometry.num_segments = 16;
  ASSERT_TRUE(FrangipaniFs::Mkfs(&disk, geometry).ok());
  FailingDevice device(&disk);
  LocalLocks locks;
  FsOptions opts;
  auto fs = std::make_unique<FrangipaniFs>(&device, &locks, SystemClock::Get(), opts);
  ASSERT_TRUE(fs->Mount().ok());
  auto ino = fs->Create("/f");
  ASSERT_TRUE(ino.ok());
  const Bytes data = Pattern(8192, 3);
  ASSERT_TRUE(fs->Write(*ino, 0, data).ok());

  obs::Counter* errors = obs::MetricsRegistry::Default()->GetCounter("fs.sync.errors");
  const uint64_t before = errors->value();
  device.failing = true;
  fs->OnLockRevoked(kLockBarrier, LockMode::kNone);
  EXPECT_EQ(errors->value(), before + 1);

  device.failing = false;
  ASSERT_TRUE(fs->Unmount().ok());
  fs.reset();
  FsckReport report = RunFsck(&disk, geometry);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 1u);
}

}  // namespace
}  // namespace frangipani
