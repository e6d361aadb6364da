#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>

#include "src/base/rng.h"
#include "src/fs/device.h"
#include "src/fs/wal.h"

namespace frangipani {
namespace {

Geometry TestGeometry() {
  Geometry g;
  g.log_bytes = 16 * 1024;  // small log to exercise reclaim
  return g;
}

class WalTest : public ::testing::Test {
 protected:
  WalTest() : device_(1, PhysDiskParams{.timing_enabled = false}) {}

  LogRecord MakeRecord(uint64_t addr, uint64_t version, uint8_t fill) {
    LogRecord rec;
    LogBlockUpdate u;
    u.addr = addr;
    u.kind = BlockKind::kInode;
    u.version = version;
    LogBlockUpdate::Range r;
    r.off = 16;
    r.data = Bytes(32, fill);
    u.ranges.push_back(r);
    rec.updates.push_back(u);
    return rec;
  }

  LocalDevice device_;
};

TEST_F(WalTest, BlockVersionHelpers) {
  Bytes inode(kInodeSize, 0);
  SetBlockVersion(BlockKind::kInode, inode, 42);
  EXPECT_EQ(BlockVersionOf(BlockKind::kInode, inode), 42u);
  Bytes meta(kBlockSize, 0);
  SetBlockVersion(BlockKind::kMeta4k, meta, 7);
  EXPECT_EQ(BlockVersionOf(BlockKind::kMeta4k, meta), 7u);
}

// DiffRanges: the spans where two images differ, split only where the gap
// is at least a range header long, including across word boundaries.
TEST_F(WalTest, DiffRangesCoverExactlyTheChangedBytes) {
  const Bytes before(kBlockSize, 0x11);
  EXPECT_TRUE(DiffRanges(before, before).empty());

  Bytes after = before;
  after[13] = 0x22;                    // one byte
  after[21] = 0x22;                    // 7 equal bytes after it: merged
  after[100] = 0x33;                   // 8 equal bytes before the next: split
  after[109] = 0x33;
  after[kBlockSize - 1] = 0x44;        // the last byte
  std::vector<LogBlockUpdate::Range> ranges = DiffRanges(before, after);
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].off, 13u);
  EXPECT_EQ(ranges[0].data.size(), 9u);
  EXPECT_EQ(ranges[1].off, 100u);
  EXPECT_EQ(ranges[1].data.size(), 1u);
  EXPECT_EQ(ranges[2].off, 109u);
  EXPECT_EQ(ranges[2].data.size(), 1u);
  EXPECT_EQ(ranges[3].off, kBlockSize - 1);
  EXPECT_EQ(ranges[3].data, Bytes{0x44});

  // Applying the ranges to `before` gives `after`.
  Bytes rebuilt = before;
  for (const LogBlockUpdate::Range& r : ranges) {
    std::copy(r.data.begin(), r.data.end(), rebuilt.begin() + r.off);
  }
  EXPECT_EQ(rebuilt, after);

  // A wholly rewritten image is one range.
  const Bytes other(kInodeSize, 0x55);
  ranges = DiffRanges(Bytes(kInodeSize, 0), other);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].off, 0u);
  EXPECT_EQ(ranges[0].data, other);
}

TEST_F(WalTest, EncodedSizeMatchesTheEncoding) {
  Geometry g = TestGeometry();
  LogRecord rec = MakeRecord(g.InodeAddr(5), 3, 0xAB);
  EXPECT_EQ(rec.EncodedSize(), rec.Encode().size());
  Bytes after(kBlockSize, 0);
  after[100] = 1;
  after[2000] = 2;
  rec.updates.push_back(
      {g.SegmentAddr(0), BlockKind::kMeta4k, 9, DiffRanges(Bytes(kBlockSize, 0), after)});
  EXPECT_EQ(rec.EncodedSize(), rec.Encode().size());
}

TEST_F(WalTest, AppendFlushReplay) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  uint64_t target = g.InodeAddr(5);
  ASSERT_TRUE(wal.Append(MakeRecord(target, 1, 0xAA)).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(target, 2, 0xBB)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());

  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(*applied, 2u);
  Bytes block;
  ASSERT_TRUE(device_.Read(target, kInodeSize, &block).ok());
  EXPECT_EQ(BlockVersionOf(BlockKind::kInode, block), 2u);
  EXPECT_EQ(block[16], 0xBB);
}

TEST_F(WalTest, ReplayIsIdempotent) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  uint64_t target = g.InodeAddr(5);
  ASSERT_TRUE(wal.Append(MakeRecord(target, 1, 0xAA)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  ASSERT_TRUE(ReplayLog(&device_, g, 0, 0).ok());
  // Second replay applies nothing (version check, §4).
  auto again = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

TEST_F(WalTest, ReplaySkipsUpdatesAlreadyOnDisk) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  uint64_t target = g.InodeAddr(5);
  ASSERT_TRUE(wal.Append(MakeRecord(target, 1, 0xAA)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  // The block was already written at a NEWER version (e.g. by the server
  // before crashing, or by a later log record already applied).
  Bytes newer(kInodeSize, 0xCC);
  SetBlockVersion(BlockKind::kInode, newer, 9);
  ASSERT_TRUE(device_.Write(target, newer, 0).ok());
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  Bytes block;
  ASSERT_TRUE(device_.Read(target, kInodeSize, &block).ok());
  EXPECT_EQ(block[16], 0xCC);  // untouched
}

TEST_F(WalTest, EmptyLogReplaysNothing) {
  Geometry g = TestGeometry();
  auto applied = ReplayLog(&device_, g, 3, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
}

TEST_F(WalTest, EraseLogFreesIt) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  ASSERT_TRUE(wal.Append(MakeRecord(g.InodeAddr(5), 1, 0xAA)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  ASSERT_TRUE(EraseLog(&device_, g, 0, 0).ok());
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
}

TEST_F(WalTest, TornTailIsIgnored) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  ASSERT_TRUE(wal.Append(MakeRecord(g.InodeAddr(5), 1, 0xAA)).ok());
  ASSERT_TRUE(wal.Append(MakeRecord(g.InodeAddr(6), 1, 0xBB)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  // Corrupt the tail: flip bytes in the last written sector.
  uint64_t sectors = wal.sectors_written();
  uint64_t last_addr = g.LogAddr(0) + (sectors - 1) * kLogSectorSize;
  Bytes garbage(kLogSectorSize - kLogSectorHeader, 0xFF);
  ASSERT_TRUE(device_.Write(last_addr + kLogSectorHeader, garbage, 0).ok());
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  // The intact prefix applies; the torn tail does not crash recovery.
  EXPECT_LE(*applied, 2u);
}

TEST_F(WalTest, CircularReclaimInvokesCallbackAndKeepsWorking) {
  Geometry g = TestGeometry();  // 16 KB log = 32 sectors
  uint64_t reclaim_calls = 0;
  uint64_t max_bound = 0;
  LogWriter wal(
      &device_, g, 0,
      [&](uint64_t bound) {
        ++reclaim_calls;
        max_bound = std::max(max_bound, bound);
        return OkStatus();
      },
      nullptr);
  // Write far more than the log size: forces several reclaims.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(wal.Append(MakeRecord(g.InodeAddr(100 + i), 1, static_cast<uint8_t>(i))).ok());
    if (i % 4 == 3) {
      ASSERT_TRUE(wal.FlushAll().ok());
    }
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_GT(reclaim_calls, 0u);
  EXPECT_GT(max_bound, 0u);
  // Recovery still parses the surviving window.
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_GT(*applied, 0u);
}

// The log reuses a record's sectors only after the reclaim callback covered
// it, also when a pass packed the next record into the sector the record
// ended in: every appended record is either still in the log or reclaimed.
TEST_F(WalTest, EveryRecordIsInTheLogOrReclaimed) {
  Geometry g = TestGeometry();  // 32 sectors
  uint64_t reclaimed_through = 0;
  LogWriter wal(
      &device_, g, 0,
      [&](uint64_t bound) {
        reclaimed_through = std::max(reclaimed_through, bound);
        return OkStatus();
      },
      nullptr);
  Rng rng(17);
  uint64_t last = 0;
  for (int i = 0; i < 300; ++i) {
    // Mostly small records, some several sectors long, often two per pass.
    const int batch = static_cast<int>(rng.Range(1, 2));
    for (int j = 0; j < batch; ++j) {
      LogRecord rec = MakeRecord(g.InodeAddr(1 + i % 50), 1, static_cast<uint8_t>(i));
      rec.updates[0].ranges[0].data.resize(rng.OneIn(8) ? rng.Range(600, 3000) : 32);
      rec.updates[0].kind = BlockKind::kMeta4k;
      StatusOr<uint64_t> last_or = wal.Append(std::move(rec));
      ASSERT_TRUE(last_or.ok());
      last = *last_or;
    }
    ASSERT_TRUE(wal.FlushAll().ok());
    Bytes region;
    ASSERT_TRUE(device_.Read(g.LogAddr(0), g.log_bytes, &region).ok());
    std::set<uint64_t> present;
    for (const LogRecord& rec : ParseLogStream(region, g.log_bytes / kLogSectorSize)) {
      present.insert(rec.lsn);
    }
    for (uint64_t lsn = reclaimed_through + 1; lsn <= last; ++lsn) {
      ASSERT_EQ(present.count(lsn), 1u) << "record " << lsn << " lost after " << i << " flushes";
    }
  }
  EXPECT_GT(reclaimed_through, 100u);
}

// A reclaim writes out what the owner's cache holds, so it must not pass a
// record whose blocks Append's `apply` has not yet put there. One thread
// stalls inside `apply`; another keeps appending and flushing through the
// log several times over. No reclaim reaches the stalled record until
// `apply` returns, and the appender then completes.
TEST_F(WalTest, ReclaimStopsShortOfARecordStillBeingApplied) {
  Geometry g = TestGeometry();  // 32 sectors
  std::atomic<bool> released{false};
  std::atomic<uint64_t> stalled_lsn{0};
  std::atomic<uint64_t> bound_while_stalled{0};
  LogWriter wal(
      &device_, g, 0,
      [&](uint64_t bound) {
        if (!released.load()) {
          bound_while_stalled = std::max(bound_while_stalled.load(), bound);
        }
        return OkStatus();
      },
      nullptr);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(wal.Append(MakeRecord(g.InodeAddr(300 + i), 1, 0x11)).ok());
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  std::promise<void> applying;
  std::promise<void> release;
  std::thread stalled([&] {
    StatusOr<uint64_t> lsn = wal.Append(MakeRecord(g.InodeAddr(1), 1, 0xAA), [&](uint64_t lsn) {
      stalled_lsn = lsn;
      applying.set_value();
      release.get_future().wait();
      return OkStatus();
    });
    EXPECT_TRUE(lsn.ok());
  });
  applying.get_future().wait();
  std::atomic<bool> appender_done{false};
  std::thread appender([&] {
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(wal.Append(MakeRecord(g.InodeAddr(2 + i), 1, static_cast<uint8_t>(i))).ok());
      EXPECT_TRUE(wal.FlushAll().ok());
    }
    appender_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(appender_done.load()) << "the log wrapped past a record still being applied";
  released = true;
  release.set_value();
  stalled.join();
  appender.join();
  EXPECT_TRUE(appender_done.load());
  EXPECT_GT(bound_while_stalled.load(), 0u);  // records before it were reclaimed
  EXPECT_LT(bound_while_stalled.load(), stalled_lsn.load());
}

// A reclaim that fails fails the Append that needed the room, and that
// record is dropped: what is pending still flushes with no further Append,
// and the next Append reclaims again.
TEST_F(WalTest, AFailedReclaimFailsOnlyTheAppendThatNeededRoom) {
  Geometry g = TestGeometry();  // 32 sectors
  int reclaim_calls = 0;
  LogWriter wal(
      &device_, g, 0,
      [&](uint64_t) { return ++reclaim_calls == 1 ? IoError("injected") : OkStatus(); },
      nullptr);
  Status failed = OkStatus();
  uint64_t appended = 0;
  for (int i = 0; i < 100 && failed.ok(); ++i) {
    StatusOr<uint64_t> lsn = wal.Append(MakeRecord(g.InodeAddr(1 + i), 1, 0xAA));
    if (!lsn.ok()) {
      failed = lsn.status();
      break;
    }
    appended = *lsn;
    if (i % 2 == 1) {  // leave a record pending when the reclaim fails
      ASSERT_TRUE(wal.FlushAll().ok());
    }
  }
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_EQ(reclaim_calls, 1);
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_EQ(wal.flushed_lsn(), appended);
  StatusOr<uint64_t> next = wal.Append(MakeRecord(g.InodeAddr(200), 1, 0xBB));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(reclaim_calls, 2);
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_EQ(wal.flushed_lsn(), *next);
}

TEST_F(WalTest, MultiBlockRecordIsAtomic) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  LogRecord rec;
  for (int i = 0; i < 3; ++i) {
    LogBlockUpdate u;
    u.addr = g.InodeAddr(10 + i);
    u.kind = BlockKind::kInode;
    u.version = 1;
    LogBlockUpdate::Range r;
    r.off = 32;
    r.data = Bytes(16, static_cast<uint8_t>(0x10 + i));
    u.ranges.push_back(r);
    rec.updates.push_back(u);
  }
  ASSERT_TRUE(wal.Append(std::move(rec)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  for (int i = 0; i < 3; ++i) {
    Bytes block;
    ASSERT_TRUE(device_.Read(g.InodeAddr(10 + i), kInodeSize, &block).ok());
    EXPECT_EQ(block[32], 0x10 + i);
  }
}

TEST_F(WalTest, LargeRecordSpansSectors) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, nullptr, nullptr);
  LogRecord rec;
  LogBlockUpdate u;
  u.addr = g.SegmentAddr(0);
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  LogBlockUpdate::Range r;
  r.off = 64;
  r.data = Bytes(2000, 0x5A);  // record ~2 KB > one 512 B sector
  u.ranges.push_back(r);
  rec.updates.push_back(u);
  ASSERT_TRUE(wal.Append(std::move(rec)).ok());
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_GE(wal.sectors_written(), 4u);
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  Bytes block;
  ASSERT_TRUE(device_.Read(g.SegmentAddr(0), kBlockSize, &block).ok());
  EXPECT_EQ(block[64], 0x5A);
  EXPECT_EQ(block[64 + 1999], 0x5A);
}

TEST_F(WalTest, SequenceNumbersDetectEndAcrossWraparound) {
  Geometry g = TestGeometry();
  LogWriter wal(&device_, g, 0, [](uint64_t) { return OkStatus(); }, nullptr);
  // Fill well past one full wrap so old sectors carry stale low seqs.
  uint8_t last_fill = 0;
  uint64_t target = g.InodeAddr(77);
  for (int i = 1; i <= 120; ++i) {
    last_fill = static_cast<uint8_t>(i);
    ASSERT_TRUE(wal.Append(MakeRecord(target, i, last_fill)).ok());
    ASSERT_TRUE(wal.FlushAll().ok());
  }
  auto applied = ReplayLog(&device_, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  Bytes block;
  ASSERT_TRUE(device_.Read(target, kInodeSize, &block).ok());
  // The NEWEST surviving record must win: version = 120, fill = 120.
  EXPECT_EQ(BlockVersionOf(BlockKind::kInode, block), 120u);
  EXPECT_EQ(block[16], last_fill);
}

}  // namespace
}  // namespace frangipani
