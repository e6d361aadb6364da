// Byte-range (extent) locks: overlap conflict detection in the core, the
// clerk's cached interval set (local hits, splits on partial revoke, merges
// of adjacent grants), range-restricted cache coherence, and concurrent
// disjoint writers through the full FS stack.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <functional>
#include <thread>

#include "src/fs/block_cache.h"
#include "src/fs/device.h"
#include "src/fs/layout.h"
#include "src/fs/wal.h"
#include "src/lock/clerk.h"
#include "src/lock/lock_core.h"
#include "src/lock/policies.h"
#include "src/lock/range_set.h"
#include "src/obs/metrics.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

// ---------------------------------------------------------------------------
// LockCore: range-overlap conflict matrix
// ---------------------------------------------------------------------------

LockCore::RevokeFn CountRevokes(int* n) {
  return [n](uint32_t, LockId, LockMode, LockRange) {
    ++*n;
    return OkStatus();
  };
}
LockCore::DeadHolderFn NoDead() {
  return [](uint32_t) {};
}

Status Req(LockCore& core, uint32_t slot, LockId lock, LockMode mode, LockRange range,
           const LockCore::RevokeFn& revoke, LockRange* granted = nullptr) {
  LockRange g;
  Status st = core.Request(slot, lock, mode, range, revoke, NoDead(), granted ? granted : &g);
  if (st.ok()) {
    core.Ack(slot, lock);
  }
  return st;
}

TEST(LockRangeCoreTest, OverlapConflictMatrix) {
  // Rows: installed holder (mode, range). Columns: second requester. A
  // conflict shows up as a revoke of the holder. Install (not Request) seeds
  // the holder so grant expansion doesn't widen its extent.
  struct Case {
    LockMode m1;
    LockRange r1;
    LockMode m2;
    LockRange r2;
    bool conflict;
  };
  const LockRange a{0, 100}, b{100, 200}, ab{50, 150};
  const std::vector<Case> cases = {
      // Disjoint ranges never conflict, whatever the modes.
      {LockMode::kExclusive, a, LockMode::kExclusive, b, false},
      {LockMode::kExclusive, a, LockMode::kShared, b, false},
      {LockMode::kShared, a, LockMode::kExclusive, b, false},
      // Overlapping ranges follow the MRSW matrix.
      {LockMode::kShared, a, LockMode::kShared, ab, false},
      {LockMode::kShared, a, LockMode::kExclusive, ab, true},
      {LockMode::kExclusive, a, LockMode::kShared, ab, true},
      {LockMode::kExclusive, a, LockMode::kExclusive, ab, true},
      // Full-range (metadata-style) holds overlap every extent.
      {LockMode::kExclusive, LockRange{}, LockMode::kExclusive, b, true},
      {LockMode::kShared, LockRange{}, LockMode::kShared, b, false},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    LockCore core;
    core.Install(1, 5, c.m1, c.r1);
    int revokes = 0;
    ASSERT_TRUE(Req(core, 2, 5, c.m2, c.r2, CountRevokes(&revokes)).ok()) << i;
    EXPECT_EQ(revokes > 0, c.conflict) << "case " << i;
  }
}

TEST(LockRangeCoreTest, DisjointWritersKeepTheirExtentsAfterTrim) {
  // Slot 1's grant expands to the whole range; slot 2's disjoint request
  // trims it back with one partial revoke of exactly the contended extent.
  LockCore core;
  std::vector<std::pair<LockMode, LockRange>> revokes;
  auto record = [&](uint32_t, LockId, LockMode m, LockRange r) {
    revokes.emplace_back(m, r);
    return OkStatus();
  };
  LockRange g1;
  ASSERT_TRUE(Req(core, 1, 5, LockMode::kExclusive, {0, 1 << 20}, record, &g1).ok());
  EXPECT_TRUE(g1.full());  // expanded: nobody else holds anything
  LockRange g2;
  ASSERT_TRUE(
      Req(core, 2, 5, LockMode::kExclusive, {1 << 20, 2 << 20}, record, &g2).ok());
  ASSERT_EQ(revokes.size(), 1u);
  EXPECT_EQ(revokes[0].first, LockMode::kNone);
  EXPECT_EQ(revokes[0].second, (LockRange{1 << 20, 2 << 20}));  // only the overlap
  EXPECT_EQ(g2, (LockRange{1 << 20, 2 << 20}));
  EXPECT_EQ(core.HeldModeAt(1, 5, 0), LockMode::kExclusive);
  EXPECT_EQ(core.HeldModeAt(1, 5, (1 << 20) - 1), LockMode::kExclusive);
  EXPECT_EQ(core.HeldModeAt(1, 5, 1 << 20), LockMode::kNone);
  EXPECT_EQ(core.HeldModeAt(2, 5, 1 << 20), LockMode::kExclusive);
}

TEST(LockRangeCoreTest, PartialRevokeLeavesTheRestHeld) {
  LockCore core;
  core.Install(1, 5, LockMode::kExclusive, {0, 200});
  std::vector<LockRange> revoked_ranges;
  auto revoke = [&](uint32_t, LockId, LockMode, LockRange r) {
    revoked_ranges.push_back(r);
    return OkStatus();
  };
  // Slot 2 wants [0,100): slot 1 must be revoked there, but keeps [100,200).
  ASSERT_TRUE(Req(core, 2, 5, LockMode::kExclusive, {0, 100}, revoke).ok());
  EXPECT_EQ(core.HeldModeAt(1, 5, 50), LockMode::kNone);
  EXPECT_EQ(core.HeldModeAt(1, 5, 150), LockMode::kExclusive);
  EXPECT_EQ(core.HeldModeAt(2, 5, 50), LockMode::kExclusive);
  ASSERT_EQ(revoked_ranges.size(), 1u);
  // The revoke asked only for the contended extent, not the whole lock.
  EXPECT_EQ(revoked_ranges[0], (LockRange{0, 100}));
}

TEST(LockRangeCoreTest, GrantExpandsToLargestNonConflictingExtent) {
  LockCore core;
  core.Install(1, 5, LockMode::kExclusive, {0, 100});
  core.Install(2, 5, LockMode::kExclusive, {500, 600});
  int n = 0;
  LockRange granted;
  // Slot 3 asks for [200,300): nobody holds (100,500), so the grant grows
  // to exactly that free gap.
  ASSERT_TRUE(Req(core, 3, 5, LockMode::kExclusive, {200, 300}, CountRevokes(&n), &granted).ok());
  EXPECT_EQ(n, 0);
  EXPECT_EQ(granted, (LockRange{100, 500}));
}

// ---------------------------------------------------------------------------
// RangeSet: split and merge arithmetic
// ---------------------------------------------------------------------------

TEST(RangeSetTest, AdjacentEqualModeGrantsMerge) {
  RangeSet set;
  RangeSetAdd(set, 0, 100, LockMode::kExclusive);
  RangeSetAdd(set, 100, 200, LockMode::kExclusive);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0].start, 0u);
  EXPECT_EQ(set[0].end, 200u);
  EXPECT_TRUE(RangeSetCovers(set, 0, 200, LockMode::kExclusive));
}

TEST(RangeSetTest, DowngradeSplitsAroundTheRevokedExtent) {
  RangeSet set;
  RangeSetAdd(set, 0, 300, LockMode::kExclusive);
  int splits = RangeSetDowngrade(set, 100, 200, LockMode::kNone);
  EXPECT_GT(splits, 0);
  EXPECT_TRUE(RangeSetCovers(set, 0, 100, LockMode::kExclusive));
  EXPECT_FALSE(RangeSetOverlaps(set, 100, 200));
  EXPECT_TRUE(RangeSetCovers(set, 200, 300, LockMode::kExclusive));
}

// ---------------------------------------------------------------------------
// Clerk: cached extents, local hits, splits on partial revoke
// ---------------------------------------------------------------------------

struct TestClerk {
  NodeId node = kInvalidNode;
  std::unique_ptr<LockClerk> clerk;
  std::mutex mu;
  std::vector<std::tuple<LockId, LockMode, LockRange>> revokes;
  // Runs inside on_revoke, after the revoke is recorded.
  std::function<void(LockId, LockRange)> in_revoke;
};

class LockRangeClerkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node_ = net_.AddNode("lockd");
    server_ = std::make_unique<LockServer>(&net_, server_node_, SystemClock::Get(),
                                           Duration(30'000'000),
                                           std::make_unique<CentralizedPolicy>());
  }

  TestClerk* NewClerk() {
    clerks_.emplace_back();
    TestClerk* tc = &clerks_.back();
    tc->node = net_.AddNode("clerk" + std::to_string(clerks_.size()));
    LockClerk::Callbacks cb;
    cb.on_revoke = [tc](LockId lock, LockMode mode, LockRange range) {
      {
        std::lock_guard<std::mutex> guard(tc->mu);
        tc->revokes.emplace_back(lock, mode, range);
      }
      if (tc->in_revoke) {
        tc->in_revoke(lock, range);
      }
    };
    tc->clerk = std::make_unique<LockClerk>(&net_, tc->node, std::vector<NodeId>{server_node_},
                                            SystemClock::Get(), std::move(cb));
    EXPECT_TRUE(tc->clerk->Open("fs").ok());
    return tc;
  }

  Network net_;
  NodeId server_node_;
  std::unique_ptr<LockServer> server_;
  std::deque<TestClerk> clerks_;
};

TEST_F(LockRangeClerkTest, CoveredRangeAcquireIsServedLocally) {
  TestClerk* a = NewClerk();
  obs::Counter* remote = obs::MetricsRegistry::Default()->GetCounter("lock.acquire.remote");
  obs::Counter* hits = obs::MetricsRegistry::Default()->GetCounter("lock.range_cache_hits");
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive, {0, 1 << 20}).ok());
  a->clerk->Release(9, {0, 1 << 20});
  uint64_t remote_before = remote->value();
  uint64_t hits_before = hits->value();
  // A sub-extent of the cached grant: no server round-trip.
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive, {4096, 8192}).ok());
  a->clerk->Release(9, {4096, 8192});
  EXPECT_EQ(remote->value(), remote_before);
  EXPECT_GT(hits->value(), hits_before);
  EXPECT_TRUE(a->clerk->CachedCovers(9, 0, 1 << 20, LockMode::kExclusive));
}

TEST_F(LockRangeClerkTest, PartialRevokeSplitsTheCachedExtent) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  obs::Counter* splits = obs::MetricsRegistry::Default()->GetCounter("lock.range_splits");
  obs::Counter* partial = obs::MetricsRegistry::Default()->GetCounter("lock.partial_revokes");
  uint64_t splits_before = splits->value();
  uint64_t partial_before = partial->value();
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive, {0, 300}).ok());
  a->clerk->Release(9, {0, 300});
  // b takes the middle; a must be revoked only there.
  ASSERT_TRUE(b->clerk->Acquire(9, LockMode::kExclusive, {100, 200}).ok());
  EXPECT_EQ(a->clerk->CachedModeAt(9, 50), LockMode::kExclusive);
  EXPECT_EQ(a->clerk->CachedModeAt(9, 150), LockMode::kNone);
  EXPECT_EQ(a->clerk->CachedModeAt(9, 250), LockMode::kExclusive);
  EXPECT_GT(splits->value(), splits_before);
  EXPECT_GT(partial->value(), partial_before);
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  LockRange r = std::get<2>(a->revokes[0]);
  EXPECT_TRUE(r.Contains(LockRange{100, 200}));
  EXPECT_FALSE(r.full());
  b->clerk->Release(9, {100, 200});
}

// The fs invalidates a revoked extent's blocks inside on_revoke, before the
// clerk downgrades its cached extents; read-ahead must not see the extent as
// covered in between.
TEST_F(LockRangeClerkTest, RevokedExtentIsNotCoveredWhileTheRevokeRuns) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive, {0, 300}).ok());
  a->clerk->Release(9, {0, 300});
  std::atomic<int> revokes{0};
  std::atomic<bool> revoked_covered{true};
  std::atomic<bool> disjoint_covered{false};
  a->in_revoke = [&](LockId lock, LockRange range) {
    ++revokes;
    revoked_covered = a->clerk->CachedCovers(lock, range.start, range.end, LockMode::kShared);
    disjoint_covered = a->clerk->CachedCovers(lock, 0, 50, LockMode::kShared);
  };
  ASSERT_TRUE(b->clerk->Acquire(9, LockMode::kExclusive, {100, 200}).ok());
  EXPECT_EQ(revokes.load(), 1);
  EXPECT_FALSE(revoked_covered.load());
  EXPECT_TRUE(disjoint_covered.load());
  b->clerk->Release(9, {100, 200});
}

TEST_F(LockRangeClerkTest, MetadataFullRangeLocksBehaveAsBefore) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  // Whole-lock (default-range) acquires: classic MRSW semantics.
  ASSERT_TRUE(a->clerk->Acquire(7, LockMode::kExclusive).ok());
  a->clerk->Release(7);
  EXPECT_EQ(a->clerk->CachedMode(7), LockMode::kExclusive);
  ASSERT_TRUE(b->clerk->Acquire(7, LockMode::kShared).ok());
  // a was downgraded everywhere — no partial state.
  EXPECT_EQ(a->clerk->CachedMode(7), LockMode::kShared);
  {
    std::lock_guard<std::mutex> guard(a->mu);
    ASSERT_EQ(a->revokes.size(), 1u);
    EXPECT_TRUE(std::get<2>(a->revokes[0]).full());
  }
  b->clerk->Release(7);
}

// ---------------------------------------------------------------------------
// BlockCache: partial revoke touches only covered blocks
// ---------------------------------------------------------------------------

class RangeCacheTest : public ::testing::Test {
 protected:
  RangeCacheTest() : device_(1, PhysDiskParams{.timing_enabled = false}) {
    Geometry g;
    g.log_bytes = 64 * 1024;
    wal_ = std::make_unique<LogWriter>(&device_, g, 0, nullptr, nullptr);
    BlockCacheOptions opts;
    opts.capacity_bytes = 1 << 20;
    opts.dirty_hiwater_bytes = 512 * 1024;
    opts.io_threads = 2;
    cache_ = std::make_unique<BlockCache>(&device_, wal_.get(), opts, nullptr);
  }

  LocalDevice device_;
  std::unique_ptr<LogWriter> wal_;
  std::unique_ptr<BlockCache> cache_;
};

TEST_F(RangeCacheTest, RangedFlushWritesOnlyCoveredBlocksAndCountsBytes) {
  const LockId lock = InodeDataLockId(42);
  // Three dirty 4 KB units at file offsets 0, 4096, 8192.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(cache_
                    ->PutDirty(/*addr=*/4096 * i, Bytes(4096, static_cast<uint8_t>(0x10 + i)),
                               lock, 0, /*range_off=*/4096 * i)
                    .ok());
  }
  size_t flushed = 0;
  ASSERT_TRUE(cache_->FlushLock(lock, 4096, 8192, &flushed).ok());
  EXPECT_EQ(flushed, 4096u);  // exactly the covered unit
  Bytes middle, first;
  ASSERT_TRUE(device_.Read(4096, 4096, &middle).ok());
  EXPECT_EQ(middle[0], 0x11);  // covered: written
  ASSERT_TRUE(device_.Read(0, 4096, &first).ok());
  EXPECT_EQ(first[0], 0);  // outside the range: still write-behind
  EXPECT_EQ(cache_->dirty_bytes(), 2 * 4096u);
}

TEST_F(RangeCacheTest, RangedInvalidateDropsOnlyCoveredBlocks) {
  const LockId lock = InodeDataLockId(42);
  ASSERT_TRUE(device_.Write(0, Bytes(4096, 0xA1), 0).ok());
  ASSERT_TRUE(device_.Write(4096, Bytes(4096, 0xA2), 0).ok());
  ASSERT_TRUE(cache_->Read(0, 4096, lock, 0).ok());
  ASSERT_TRUE(cache_->Read(4096, 4096, lock, 4096).ok());
  uint64_t misses_before = cache_->misses();
  cache_->InvalidateLock(lock, 4096, 8192);
  // The first unit survived; re-reading it is a hit.
  ASSERT_TRUE(cache_->Read(0, 4096, lock, 0).ok());
  EXPECT_EQ(cache_->misses(), misses_before);
  // The second was dropped; re-reading it misses.
  ASSERT_TRUE(cache_->Read(4096, 4096, lock, 4096).ok());
  EXPECT_EQ(cache_->misses(), misses_before + 1);
}

// ---------------------------------------------------------------------------
// Full stack: concurrent disjoint writers on one file (TSan-sensitive)
// ---------------------------------------------------------------------------

TEST(LockRangeFsTest, ConcurrentDisjointWritersOneFile) {
  ClusterOptions copts;
  copts.petal_servers = 3;
  copts.disks_per_petal = 1;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kWriters = 3;
  for (int i = 0; i < kWriters; ++i) {
    ASSERT_TRUE(cluster.AddFrangipani().ok());
  }
  auto ino = cluster.fs(0)->Create("/shared");
  ASSERT_TRUE(ino.ok());
  constexpr uint64_t kRegion = 128 * 1024;  // distinct 128 KB region per writer
  // Pre-size the file so region writes are pure overwrites (the extent path).
  ASSERT_TRUE(
      cluster.fs(0)->Write(*ino, kWriters * kRegion - 1, Bytes(1, 0)).ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      FrangipaniFs* fs = cluster.fs(w);
      for (int round = 0; round < 8; ++round) {
        uint64_t off = w * kRegion + (round % 4) * 16384;
        Bytes data(16384, static_cast<uint8_t>(0x30 + w));
        if (!fs->Write(*ino, off, data).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Every machine reads every region coherently.
  for (int m = 0; m < kWriters; ++m) {
    for (int w = 0; w < kWriters; ++w) {
      Bytes back;
      ASSERT_TRUE(cluster.fs(m)->Read(*ino, w * kRegion, 16384, &back).ok());
      ASSERT_EQ(back.size(), 16384u);
      EXPECT_EQ(back[0], 0x30 + w) << "machine " << m << " region " << w;
      EXPECT_EQ(back[16383], 0x30 + w) << "machine " << m << " region " << w;
    }
  }
}

}  // namespace
}  // namespace frangipani
