// Phase two's fetch rule (§5): once a two-phase op holds its locks, it knows
// every inode and segment bitmap it will touch. It reads the first cold one
// itself and starts the rest together, so a cold unlink reads its segment
// bitmap alongside the parent inode instead of after it. A fetch the op
// turns out not to need, still in flight when the lock goes, is dropped by
// the lock's epoch rather than cached.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/fs/alloc.h"
#include "src/fs/device.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/fsck.h"
#include "src/fs/lock_provider.h"
#include "src/obs/metrics.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name)->value();
}

// Sleeps on every read, a longer time on the addresses given to SlowAt, and
// records the peak number of reads in flight and which addresses were read
// at the same time.
class SleepyDevice : public BlockDevice {
 public:
  explicit SleepyDevice(BlockDevice* inner) : inner_(inner) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    std::chrono::milliseconds delay;
    {
      std::lock_guard<std::mutex> guard(mu_);
      for (uint64_t other : inflight_) {
        overlaps_.insert(std::minmax(other, offset));
      }
      inflight_.insert(offset);
      peak_ = std::max(peak_, inflight_.size());
      delay = slow_.count(offset) > 0 ? kSlowRead : kRead;
    }
    std::this_thread::sleep_for(delay);
    Status st = inner_->Read(offset, length, out);
    {
      std::lock_guard<std::mutex> guard(mu_);
      inflight_.erase(inflight_.find(offset));
    }
    return st;
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return inner_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return inner_->Decommit(offset, length, lease_expiry_us);
  }

  void SlowAt(uint64_t addr) {
    std::lock_guard<std::mutex> guard(mu_);
    slow_.insert(addr);
  }
  void Reset() {
    std::lock_guard<std::mutex> guard(mu_);
    peak_ = 0;
    overlaps_.clear();
  }
  size_t peak() {
    std::lock_guard<std::mutex> guard(mu_);
    return peak_;
  }
  bool ReadTogether(uint64_t a, uint64_t b) {
    std::lock_guard<std::mutex> guard(mu_);
    return overlaps_.count(std::minmax(a, b)) > 0;
  }

  static constexpr std::chrono::milliseconds kRead{20};
  static constexpr std::chrono::milliseconds kSlowRead{400};

 private:
  BlockDevice* inner_;
  std::mutex mu_;
  std::multiset<uint64_t> inflight_;
  std::set<std::pair<uint64_t, uint64_t>> overlaps_;
  std::set<uint64_t> slow_;
  size_t peak_ = 0;
};

class PlanFetchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    geometry_.num_segments = 16;
    ASSERT_TRUE(FrangipaniFs::Mkfs(&disk_, geometry_).ok());
    fs_ = std::make_unique<FrangipaniFs>(&device_, &locks_, SystemClock::Get());
    ASSERT_TRUE(fs_->Mount().ok());
  }

  void ExpectCleanUnmount() {
    ASSERT_TRUE(fs_->Unmount().ok());
    FsckReport report = RunFsck(&disk_, geometry_);
    EXPECT_TRUE(report.ok) << report.Summary();
  }

  LocalDevice disk_{1, PhysDiskParams{.timing_enabled = false}};
  SleepyDevice device_{&disk_};
  Geometry geometry_;
  LocalLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;  // destroyed first: it unmounts onto the devices
};

// After the cache is dropped, an unlink's parent inode and the segment
// bitmap of the file it frees are both cold; the bitmap is read while the
// parent inode is, not after the parent's directory chain.
TEST_F(PlanFetchTest, ColdUnlinkReadsTheSegmentBitmapWithTheParentInode) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto dir = fs_->Lookup("/d");
  ASSERT_TRUE(dir.ok());
  auto ino = fs_->Create("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Write(*ino, 0, Bytes(1024, 7)).ok());
  ASSERT_TRUE(fs_->DropCaches().ok());

  const uint64_t fetches = CounterValue("fs.plan_fetches");
  device_.Reset();
  Status st = fs_->Unlink("/d/f");
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GE(device_.peak(), 2u) << "every read of the cold unlink ran alone";
  EXPECT_TRUE(device_.ReadTogether(geometry_.InodeAddr(*dir),
                                   geometry_.SegmentAddr(SegmentOfInode(*ino))))
      << "the segment bitmap was not read alongside the parent inode";
  EXPECT_GE(CounterValue("fs.plan_fetches") - fetches, 1u);
  ExpectCleanUnmount();
}

// A create whose one cold block is the parent inode (a peer's revoke just
// took the directory) reads it on its own thread: no pool fetch.
TEST_F(PlanFetchTest, CreateWithOnlyTheParentInodeColdStartsNoFetch) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto dir = fs_->Lookup("/d");
  ASSERT_TRUE(dir.ok());
  auto freed = fs_->Create("/d/x");
  ASSERT_TRUE(freed.ok());
  ASSERT_TRUE(fs_->Unlink("/d/x").ok());  // the freed inode stays cached
  fs_->OnLockRevoked(InodeLockId(*dir), LockMode::kNone);
  ASSERT_FALSE(fs_->cache()->Cached(geometry_.InodeAddr(*dir)));

  const uint64_t fetches = CounterValue("fs.plan_fetches");
  const uint64_t misses = fs_->Stats().cache_misses;
  device_.Reset();
  auto ino = fs_->Create("/d/y");
  ASSERT_TRUE(ino.ok()) << ino.status();
  EXPECT_EQ(*ino, *freed) << "the create did not reuse the cached free inode";
  EXPECT_GT(fs_->Stats().cache_misses, misses) << "the parent inode was not cold";
  EXPECT_EQ(CounterValue("fs.plan_fetches"), fetches);
  EXPECT_EQ(device_.peak(), 1u);
  ExpectCleanUnmount();
}

// An unlink of one of two names frees nothing, so apply never reads the
// segment bitmap it fetched. The fetch is still in flight when the segment
// lock is revoked: its data is dropped, not cached under a lock this server
// no longer holds.
TEST_F(PlanFetchTest, FetchStillInFlightWhenTheLockGoesIsDropped) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  auto ino = fs_->Create("/d/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs_->Link("/d/f", "/d/g").ok());
  ASSERT_TRUE(fs_->DropCaches().ok());
  const uint32_t seg = SegmentOfInode(*ino);
  device_.SlowAt(geometry_.SegmentAddr(seg));

  const uint64_t fetches = CounterValue("fs.plan_fetches");
  const uint64_t wasted = CounterValue("fs.plan_fetch_wasted");
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  ASSERT_LT(std::chrono::steady_clock::now() - start, SleepyDevice::kSlowRead)
      << "the unlink waited for the bitmap it did not need";
  EXPECT_EQ(CounterValue("fs.plan_fetches") - fetches, 1u);
  fs_->OnLockRevoked(SegmentLockId(seg), LockMode::kNone);  // waits for the fetch
  EXPECT_EQ(CounterValue("fs.plan_fetch_wasted") - wasted, 1u);
  EXPECT_FALSE(fs_->cache()->Cached(geometry_.SegmentAddr(seg)));

  auto attr = fs_->Stat("/d/g");
  ASSERT_TRUE(attr.ok()) << attr.status();
  EXPECT_EQ(attr->nlink, 1u);
  ASSERT_TRUE(fs_->Unlink("/d/g").ok());
  ExpectCleanUnmount();
}

// Server a's name hint for /d/f goes stale: b renames the file away and
// creates a new /d/f. a's unlink takes the old inode from the hint, starts
// its fetches under phase two's locks, finds the entry changed, and aborts;
// the retry looks the name up and removes the new file.
TEST(PlanFetchClusterTest, StaleHintAbortAfterFetchesRetriesToOk) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* a = cluster.fs(0);
  FrangipaniFs* b = cluster.fs(1);

  ASSERT_TRUE(a->Mkdir("/d").ok());
  auto old_ino = a->Create("/d/f");  // a's hint: /d/f -> old_ino
  ASSERT_TRUE(old_ino.ok());
  ASSERT_TRUE(b->Rename("/d/f", "/d/g").ok());
  auto new_ino = b->Create("/d/f");
  ASSERT_TRUE(new_ino.ok());
  ASSERT_TRUE(a->DropCaches().ok());  // the old inode's bitmap goes cold

  const uint64_t fetches = CounterValue("fs.plan_fetches");
  const uint64_t stale = CounterValue("fs.name_hint.stale");
  const uint64_t aborts = CounterValue("fs.abort.unlink");
  Status st = a->Unlink("/d/f");
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_GE(CounterValue("fs.name_hint.stale") - stale, 1u);
  EXPECT_GE(CounterValue("fs.abort.unlink") - aborts, 1u);
  EXPECT_GE(CounterValue("fs.plan_fetches") - fetches, 1u);

  EXPECT_EQ(b->Stat("/d/f").status().code(), StatusCode::kNotFound);
  auto kept = b->Stat("/d/g");
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_EQ(kept->ino, *old_ino);
  ASSERT_TRUE(a->SyncAll().ok());
  ASSERT_TRUE(b->SyncAll().ok());
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 1u);
}

}  // namespace
}  // namespace frangipani
