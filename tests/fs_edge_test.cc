// Edge cases and error paths of the file-system API.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "src/fs/device.h"
#include "src/fs/fsck.h"
#include "src/fs/inode.h"
#include "src/fs/layout.h"
#include "src/fs/lock_provider.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class FsEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.petal_servers = 3;
    opts.disks_per_petal = 1;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    auto node = cluster_->AddFrangipani();
    ASSERT_TRUE(node.ok());
    fs_ = (*node)->fs();
  }

  std::unique_ptr<Cluster> cluster_;
  FrangipaniFs* fs_ = nullptr;
};

TEST_F(FsEdgeTest, PathSyntax) {
  EXPECT_EQ(fs_->Create("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/a/../b").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Create("/./x").status().code(), StatusCode::kInvalidArgument);
  std::string long_name(kDirNameMax + 1, 'x');
  EXPECT_EQ(fs_->Create("/" + long_name).status().code(), StatusCode::kInvalidArgument);
  std::string max_name(kDirNameMax, 'y');
  EXPECT_TRUE(fs_->Create("/" + max_name).ok());
  // Redundant slashes are tolerated.
  EXPECT_TRUE(fs_->Mkdir("//d").ok());
  EXPECT_TRUE(fs_->Create("//d///f").ok());
  EXPECT_TRUE(fs_->Stat("/d/f").ok());
}

TEST_F(FsEdgeTest, SymlinkLoopDetected) {
  ASSERT_TRUE(fs_->Symlink("/b", "/a").ok());
  ASSERT_TRUE(fs_->Symlink("/a", "/b").ok());
  EXPECT_EQ(fs_->Lookup("/a").status().code(), StatusCode::kInvalidArgument);
  // Loop through a directory component.
  EXPECT_EQ(fs_->Stat("/a/child").status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, SymlinkTargetLengthLimit) {
  std::string target(kSymlinkMax + 1, 't');
  EXPECT_FALSE(fs_->Symlink(target, "/toolong").ok());
  std::string ok_target(kSymlinkMax, 't');
  EXPECT_TRUE(fs_->Symlink(ok_target, "/fits").ok());
  auto back = fs_->Readlink("/fits");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), kSymlinkMax);
}

TEST_F(FsEdgeTest, RelativeSymlinkResolvesWithinDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/dir").ok());
  ASSERT_TRUE(fs_->Create("/dir/real").ok());
  ASSERT_TRUE(fs_->Symlink("real", "/dir/alias").ok());
  auto direct = fs_->Lookup("/dir/real");
  auto via = fs_->Lookup("/dir/alias");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via.ok());
  EXPECT_EQ(*via, *direct);
}

TEST_F(FsEdgeTest, ReadWriteOnDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto ino = fs_->Lookup("/d");
  ASSERT_TRUE(ino.ok());
  Bytes buf;
  EXPECT_EQ(fs_->Read(*ino, 0, 10, &buf).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Write(*ino, 0, Bytes(10, 1)).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Truncate(*ino, 0).code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, UnlinkDirectoryAndRmdirFileRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/f").ok());
  EXPECT_EQ(fs_->Unlink("/d").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fs_->Rmdir("/f").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, HardLinkToDirectoryRejected) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Link("/d", "/d2").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, RenameDirOntoNonEmptyDirRejected) {
  ASSERT_TRUE(fs_->Mkdir("/src").ok());
  ASSERT_TRUE(fs_->Mkdir("/dst").ok());
  ASSERT_TRUE(fs_->Create("/dst/occupied").ok());
  EXPECT_EQ(fs_->Rename("/src", "/dst").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fs_->Unlink("/dst/occupied").ok());
  EXPECT_TRUE(fs_->Rename("/src", "/dst").ok());  // empty dir is replaceable
}

TEST_F(FsEdgeTest, RenameFileOntoDirRejected) {
  ASSERT_TRUE(fs_->Create("/f").ok());
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_EQ(fs_->Rename("/f", "/d").code(), StatusCode::kInvalidArgument);
}

TEST_F(FsEdgeTest, RenameToSamePathIsNoOp) {
  auto ino = fs_->Create("/same");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(fs_->Rename("/same", "/same").ok());
  auto attr = fs_->Stat("/same");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->ino, *ino);
}

TEST_F(FsEdgeTest, ZeroLengthIo) {
  auto ino = fs_->Create("/z");
  ASSERT_TRUE(ino.ok());
  EXPECT_TRUE(fs_->Write(*ino, 0, Bytes{}).ok());
  Bytes out;
  auto n = fs_->Read(*ino, 0, 0, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  // Reads past EOF return zero bytes, not errors.
  n = fs_->Read(*ino, 100, 50, &out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(FsEdgeTest, HoleZeroSemantics) {
  auto ino = fs_->Create("/holey");
  ASSERT_TRUE(ino.ok());
  // Write only the 3rd small block; blocks 0-1 are holes.
  ASSERT_TRUE(fs_->Write(*ino, 2 * 4096, Bytes(4096, 0xAB)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 3 * 4096, &out).ok());
  ASSERT_EQ(out.size(), 3u * 4096);
  for (int i = 0; i < 2 * 4096; ++i) {
    ASSERT_EQ(out[i], 0) << i;
  }
  EXPECT_EQ(out[2 * 4096], 0xAB);
}

TEST_F(FsEdgeTest, TruncateThenRewriteReadsZerosBetween) {
  auto ino = fs_->Create("/t");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(6000, 0xCD)).ok());
  ASSERT_TRUE(fs_->Truncate(*ino, 1000).ok());
  ASSERT_TRUE(fs_->Write(*ino, 3000, Bytes(100, 0xEF)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 3100, &out).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[i], 0xCD) << i;
  }
  for (int i = 1000; i < 3000; ++i) {
    ASSERT_EQ(out[i], 0) << i;  // no resurrected data
  }
  EXPECT_EQ(out[3000], 0xEF);
}

TEST_F(FsEdgeTest, DirectoryGrowsIntoLargeBlock) {
  // More entries than fit in the 16 small blocks (16 * 63 = 1008).
  ASSERT_TRUE(fs_->Mkdir("/big").ok());
  constexpr int kEntries = 1100;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(fs_->Create("/big/e" + std::to_string(i)).ok()) << i;
  }
  auto entries = fs_->Readdir("/big");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kEntries));
  // The directory's data now spills into its large block; everything still
  // resolves and fsck stays clean.
  EXPECT_TRUE(fs_->Lookup("/big/e1099").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  PetalDevice device(cluster_->admin_petal(), cluster_->vdisk());
  FsckReport report = RunFsck(&device, cluster_->geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_F(FsEdgeTest, DropCachesPreservesData) {
  auto ino = fs_->Create("/persist");
  ASSERT_TRUE(ino.ok());
  Bytes data(10000, 0x42);
  ASSERT_TRUE(fs_->Write(*ino, 0, data).ok());
  ASSERT_TRUE(fs_->DropCaches().ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, data.size(), &out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(FsEdgeTest, ApproximateAtimeAdvancesOnRead) {
  auto ino = fs_->Create("/stamped");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(100, 1)).ok());
  auto before = fs_->StatIno(*ino);
  ASSERT_TRUE(before.ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 100, &out).ok());
  auto after = fs_->StatIno(*ino);
  ASSERT_TRUE(after.ok());
  EXPECT_GE(after->atime_us, before->atime_us);
}

TEST_F(FsEdgeTest, StatsCountOperations) {
  auto before = fs_->Stats();
  ASSERT_TRUE(fs_->Create("/counted").ok());
  auto ino = fs_->Lookup("/counted");
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(10, 1)).ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, 10, &out).ok());
  auto after = fs_->Stats();
  EXPECT_GE(after.operations, before.operations + 3);
  EXPECT_GE(after.log_records, before.log_records + 1);
}

TEST_F(FsEdgeTest, ReadaheadTracksSequentialReads) {
  auto ino = fs_->Create("/seq");
  ASSERT_TRUE(ino.ok());
  Bytes unit(64 * 1024, 0x11);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Write(*ino, i * unit.size(), unit).ok());
  }
  ASSERT_TRUE(fs_->DropCaches().ok());
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Read(*ino, i * unit.size(), unit.size(), &out).ok());
  }
  EXPECT_GT(fs_->Stats().prefetches, 0u);
  // With read-ahead off, no prefetches are issued.
  fs_->SetReadahead(false);
  uint64_t prefetches = fs_->Stats().prefetches;
  ASSERT_TRUE(fs_->DropCaches().ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fs_->Read(*ino, i * unit.size(), unit.size(), &out).ok());
  }
  EXPECT_EQ(fs_->Stats().prefetches, prefetches);
}

// Read-ahead follows a read that continues where the last one ended, not a
// forward skip: a skipping reader would not read what it fetched.
TEST_F(FsEdgeTest, ReadaheadSkipsAForwardSeek) {
  auto ino = fs_->Create("/skip");
  ASSERT_TRUE(ino.ok());
  Bytes unit(64 * 1024, 0x22);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fs_->Write(*ino, i * unit.size(), unit).ok());
  }
  ASSERT_TRUE(fs_->DropCaches().ok());
  Bytes out;
  ASSERT_TRUE(fs_->Read(*ino, 0, unit.size(), &out).ok());
  const uint64_t after_start = fs_->Stats().prefetches;
  EXPECT_GT(after_start, 0u);
  // Unit 30 is past the window the first read started.
  ASSERT_TRUE(fs_->Read(*ino, 30 * unit.size(), unit.size(), &out).ok());
  EXPECT_EQ(fs_->Stats().prefetches, after_start);
  ASSERT_TRUE(fs_->Read(*ino, 31 * unit.size(), unit.size(), &out).ok());
  EXPECT_GT(fs_->Stats().prefetches, after_start);
}

TEST_F(FsEdgeTest, UnmountedAndRemountedStatePersists) {
  auto ino = fs_->Create("/durable");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(5000, 0x99)).ok());
  ASSERT_TRUE(cluster_->node(0)->Unmount().ok());
  // Mount a second machine; everything is there.
  auto node = cluster_->AddFrangipani();
  ASSERT_TRUE(node.ok());
  auto found = (*node)->fs()->Lookup("/durable");
  ASSERT_TRUE(found.ok());
  Bytes out;
  ASSERT_TRUE((*node)->fs()->Read(*found, 0, 5000, &out).ok());
  EXPECT_EQ(out, Bytes(5000, 0x99));
}

// Local locks whose first coverage check of a data lock first runs the fs's
// revoke of the checked extent (flush and invalidate, as the clerk's revoke
// callback does): a revoke that lands just after read-ahead's check.
class RevokeDuringCoverageCheck : public LocalLocks {
 public:
  bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const override {
    if (fs != nullptr && IsInodeDataLock(lock) && !fired.exchange(true)) {
      fs->OnLockRevoked(lock, LockMode::kNone, LockRange{start, end});
    }
    return true;
  }

  FrangipaniFs* fs = nullptr;
  mutable std::atomic<bool> fired{false};
};

// Signals after the first read of `watch` has returned its bytes.
class WatchedDevice : public BlockDevice {
 public:
  explicit WatchedDevice(BlockDevice* base) : base_(base) {}
  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    Status st = base_->Read(offset, length, out);
    if (offset == watch.load() && !read.exchange(true)) {
      read_done.set_value();
    }
    return st;
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return base_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return base_->Decommit(offset, length, lease_expiry_us);
  }

  std::atomic<uint64_t> watch{~0ull};  // nothing watched
  std::atomic<bool> read{false};
  std::promise<void> read_done;

 private:
  BlockDevice* base_;
};

// A read-ahead whose unit is revoked between the coverage check and the
// prefetch must not cache the unit's old bytes: another node writes the unit
// once the revoke has handed the lock over, and the next read must see it.
TEST(ReadaheadRaceTest, RevokeDuringTheCoverageCheckCachesNoStaleUnit) {
  LocalDevice disk(1, PhysDiskParams{.timing_enabled = false});
  Geometry geometry;
  geometry.num_segments = 16;
  ASSERT_TRUE(FrangipaniFs::Mkfs(&disk, geometry).ok());
  WatchedDevice device(&disk);
  RevokeDuringCoverageCheck locks;
  FrangipaniFs fs(&device, &locks, SystemClock::Get());
  ASSERT_TRUE(fs.Mount().ok());
  auto ino = fs.Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs.Write(*ino, 0, Bytes(2 * kBlockSize, 0x11)).ok());
  ASSERT_TRUE(fs.SyncAll().ok());
  ASSERT_TRUE(fs.DropCaches().ok());
  Bytes raw;
  ASSERT_TRUE(disk.Read(geometry.InodeAddr(*ino), kInodeSize, &raw).ok());
  auto node = Inode::Decode(raw);
  ASSERT_TRUE(node.ok());
  ASSERT_NE(node->small[1], 0u);
  const uint64_t unit1 = geometry.SmallBlockAddr(node->small[1]);

  std::future<void> prefetched = device.read_done.get_future();
  device.watch = unit1;
  locks.fs = &fs;
  Bytes out;
  ASSERT_TRUE(fs.Read(*ino, 0, kBlockSize, &out).ok());  // reads ahead into unit 1
  ASSERT_EQ(prefetched.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  ASSERT_TRUE(disk.Write(unit1, Bytes(kBlockSize, 0x22), 0).ok());
  ASSERT_TRUE(fs.Read(*ino, kBlockSize, kBlockSize, &out).ok());
  EXPECT_EQ(out, Bytes(kBlockSize, 0x22));
  ASSERT_TRUE(fs.Unmount().ok());
}

// While held, parks every read of a large-region unit (kChunkSize bytes)
// until Release, recording which addresses were read and the peak number of
// them parked at once. Smaller reads (inodes, small blocks) pass through.
class GatedDevice : public BlockDevice {
 public:
  explicit GatedDevice(BlockDevice* base) : base_(base) {}
  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    if (length == kChunkSize) {
      std::unique_lock<std::mutex> lk(mu_);
      if (held_) {
        read_.insert(offset);
        peak_ = std::max(peak_, ++parked_);
        cv_.notify_all();
        cv_.wait(lk, [&] { return !held_; });
        --parked_;
      }
    }
    return base_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return base_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return base_->Decommit(offset, length, lease_expiry_us);
  }

  void Hold() {
    std::lock_guard<std::mutex> guard(mu_);
    held_ = true;
  }
  void Release() {
    std::lock_guard<std::mutex> guard(mu_);
    held_ = false;
    cv_.notify_all();
  }
  // Waits up to `timeout` for `n` reads to be parked at once.
  bool WaitParked(size_t n, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [&] { return parked_ >= n; });
  }
  bool WasRead(uint64_t addr) {
    std::lock_guard<std::mutex> guard(mu_);
    return read_.count(addr) > 0;
  }
  size_t peak() {
    std::lock_guard<std::mutex> guard(mu_);
    return peak_;
  }

 private:
  BlockDevice* base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool held_ = false;
  size_t parked_ = 0;
  size_t peak_ = 0;
  std::set<uint64_t> read_;
};

// A file whose large region holds kReadaheadUnits + 3 units, on a device
// that can park the reads of large-region units.
class ReadaheadWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    geometry_.num_segments = 16;
    ASSERT_TRUE(FrangipaniFs::Mkfs(&disk_, geometry_).ok());
    fs_ = std::make_unique<FrangipaniFs>(&device_, &locks_, SystemClock::Get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto ino = fs_->Create("/f");
    ASSERT_TRUE(ino.ok());
    ino_ = *ino;
    content_.resize(kSmallBytesPerFile + (kReadaheadUnits + 3) * kChunkSize);
    for (size_t i = 0; i < content_.size(); ++i) {
      content_[i] = static_cast<uint8_t>(i / kChunkSize * 7 + i % 251);
    }
    ASSERT_TRUE(fs_->Write(ino_, 0, content_).ok());
    ASSERT_TRUE(fs_->SyncAll().ok());
    ASSERT_TRUE(fs_->DropCaches().ok());
    Bytes raw;
    ASSERT_TRUE(disk_.Read(geometry_.InodeAddr(ino_), kInodeSize, &raw).ok());
    auto node = Inode::Decode(raw);
    ASSERT_TRUE(node.ok());
    ASSERT_NE(node->large, 0u);
    large_ = geometry_.LargeBlockAddr(node->large);
  }
  void TearDown() override { ASSERT_TRUE(fs_->Unmount().ok()); }

  // The file's bytes in large-region units [first, first + n).
  Bytes Units(uint64_t first, uint64_t n) const {
    auto begin = content_.begin() + kSmallBytesPerFile + first * kChunkSize;
    return Bytes(begin, begin + n * kChunkSize);
  }
  // Of large-region units [first, end), those the device has not read.
  std::vector<uint64_t> Unread(uint64_t first, uint64_t end) {
    std::vector<uint64_t> unread;
    for (uint64_t u = first; u < end; ++u) {
      if (!device_.WasRead(large_ + u * kChunkSize)) {
        unread.push_back(u);
      }
    }
    return unread;
  }

  LocalDevice disk_{1, PhysDiskParams{.timing_enabled = false}};
  Geometry geometry_;
  GatedDevice device_{&disk_};
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;
  uint64_t ino_ = 0;
  Bytes content_;
  uint64_t large_ = 0;  // device address of large-region unit 0
};

// A cold sequential read of two units starts its read-ahead before it
// waits on them, and the prefetch pool reads a window's worth of units at
// once. The own units are queued first, so with one thread per window
// unit, they and the window's first kReadaheadUnits - 2 units are read
// while the own reads are parked.
TEST_F(ReadaheadWindowTest, WindowIsInFlightWhileTheOwnUnitsAreRead) {
  device_.Hold();
  Bytes out;
  Status read_st = OkStatus();
  std::thread reader(
      [&] { read_st = fs_->Read(ino_, kSmallBytesPerFile, 2 * kChunkSize, &out).status(); });
  const bool window_parked = device_.WaitParked(kReadaheadUnits, std::chrono::seconds(5));
  const std::vector<uint64_t> own_unread = Unread(0, 2);
  const std::vector<uint64_t> window_unread = Unread(2, kReadaheadUnits);
  const size_t peak = device_.peak();
  device_.Release();
  reader.join();

  ASSERT_TRUE(read_st.ok()) << read_st;
  EXPECT_EQ(out, Units(0, 2));
  EXPECT_TRUE(own_unread.empty());
  // Read-ahead was issued while the own units' reads were held...
  EXPECT_TRUE(window_parked);
  EXPECT_TRUE(window_unread.empty())
      << window_unread.size() << " of the " << kReadaheadUnits - 2
      << " window units that fit beside the own units were not read, the first is unit "
      << (window_unread.empty() ? 0 : window_unread.front());
  // ...and the pool read a window's worth of units at once.
  EXPECT_GE(peak, kReadaheadUnits);
  // The window's units hold the file's bytes, and none was dropped.
  ASSERT_TRUE(fs_->Read(ino_, kSmallBytesPerFile + 2 * kChunkSize, kReadaheadUnits * kChunkSize,
                        &out)
                  .ok());
  EXPECT_EQ(out, Units(2, kReadaheadUnits));
  EXPECT_EQ(fs_->Stats().prefetch_wasted, 0u);
}

// A cold sequential read of one unit reads it before it queues the
// read-ahead, so the window's replies cannot delay it: while its read is
// parked, no window unit is read. The window is queued once it arrives.
TEST_F(ReadaheadWindowTest, LoneMissIsReadBeforeItsWindow) {
  device_.Hold();
  Bytes out;
  Status read_st = OkStatus();
  std::thread reader(
      [&] { read_st = fs_->Read(ino_, kSmallBytesPerFile, kChunkSize, &out).status(); });
  const bool own_parked = device_.WaitParked(1, std::chrono::seconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::vector<uint64_t> own_unread = Unread(0, 1);
  const size_t window_read = kReadaheadUnits - Unread(1, 1 + kReadaheadUnits).size();
  device_.Release();
  reader.join();

  ASSERT_TRUE(read_st.ok()) << read_st;
  EXPECT_EQ(out, Units(0, 1));
  EXPECT_TRUE(own_parked);
  EXPECT_TRUE(own_unread.empty());
  EXPECT_EQ(window_read, 0u);
  EXPECT_EQ(fs_->Stats().prefetches, kReadaheadUnits);
  ASSERT_TRUE(fs_->Read(ino_, kSmallBytesPerFile + kChunkSize, kReadaheadUnits * kChunkSize, &out)
                  .ok());
  EXPECT_EQ(out, Units(1, kReadaheadUnits));
  EXPECT_EQ(fs_->Stats().prefetch_wasted, 0u);
}

}  // namespace
}  // namespace frangipani
