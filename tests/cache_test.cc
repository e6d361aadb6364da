// Unit tests for the block cache: coherence hooks, write-behind, WAL
// pinning, eviction, prefetch epochs, and prefetch coordination.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "src/fs/block_cache.h"
#include "src/fs/device.h"
#include "src/fs/wal.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace frangipani {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : device_(1, PhysDiskParams{.timing_enabled = false}) {
    Geometry g;
    g.log_bytes = 64 * 1024;
    wal_ = std::make_unique<LogWriter>(&device_, g, 0, nullptr, nullptr);
    BlockCacheOptions opts;
    opts.capacity_bytes = 64 * 1024;
    opts.dirty_hiwater_bytes = 32 * 1024;
    opts.io_threads = 2;
    cache_ = std::make_unique<BlockCache>(&device_, wal_.get(), opts, nullptr);
  }

  Bytes Block(uint8_t fill, size_t n = 4096) { return Bytes(n, fill); }

  LocalDevice device_;
  std::unique_ptr<LogWriter> wal_;
  std::unique_ptr<BlockCache> cache_;
};

TEST_F(CacheTest, ReadThroughCachesAndHits) {
  Bytes data = Block(0xAA);
  ASSERT_TRUE(device_.Write(0, data, 0).ok());
  auto r1 = cache_->Read(0, 4096, /*lock=*/7);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, data);
  EXPECT_EQ(cache_->misses(), 1u);
  auto r2 = cache_->Read(0, 4096, 7);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(cache_->hits(), 1u);
}

TEST_F(CacheTest, PutDirtyThenFlushReachesDevice) {
  ASSERT_TRUE(cache_->PutDirty(4096, Block(0xBB), 7, 0).ok());
  EXPECT_GT(cache_->dirty_bytes(), 0u);
  Bytes before;
  ASSERT_TRUE(device_.Read(4096, 4096, &before).ok());
  EXPECT_EQ(before[0], 0);  // not written yet (write-behind)
  ASSERT_TRUE(cache_->FlushLock(7).ok());
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  Bytes after;
  ASSERT_TRUE(device_.Read(4096, 4096, &after).ok());
  EXPECT_EQ(after[0], 0xBB);
}

TEST_F(CacheTest, WalFlushedBeforePinnedBlock) {
  LogRecord rec;
  LogBlockUpdate u;
  u.addr = 8192;
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  u.ranges.push_back({0, Bytes(16, 0xCC)});
  rec.updates.push_back(u);
  StatusOr<uint64_t> lsn_or = wal_->Append(std::move(rec));
  ASSERT_TRUE(lsn_or.ok());
  uint64_t lsn = *lsn_or;
  ASSERT_TRUE(cache_->PutDirty(8192, Block(0xCC), 9, lsn).ok());
  EXPECT_EQ(wal_->flushed_lsn(), 0u);
  ASSERT_TRUE(cache_->FlushLock(9).ok());
  // Write-ahead rule: flushing the block forced the log out first.
  EXPECT_GE(wal_->flushed_lsn(), lsn);
}

TEST_F(CacheTest, InvalidateDropsEntriesAndBumpsEpoch) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, 0).ok());
  ASSERT_TRUE(cache_->FlushLock(7).ok());
  uint64_t epoch = cache_->LockEpoch(7);
  cache_->InvalidateLock(7);
  EXPECT_FALSE(cache_->Cached(0));
  EXPECT_EQ(cache_->LockEpoch(7), epoch + 1);
}

TEST_F(CacheTest, StalePrefetchRejectedAfterInvalidation) {
  uint64_t epoch = cache_->LockEpoch(7);
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  // Invalidation (a revoke) waits for the in-flight prefetch to finish —
  // the wasted-read-ahead delay of Figure 8 — so it runs on another thread.
  std::atomic<bool> invalidated{false};
  std::thread revoker([&] {
    cache_->InvalidateLock(7);
    invalidated.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(invalidated.load());  // still waiting on the prefetch
  cache_->PutPrefetched(0, Block(0xEE), 7, epoch);
  cache_->EndPrefetch(0, 7);
  revoker.join();
  // Either the insert lost to the epoch bump or the invalidation dropped
  // it; in both interleavings no stale data survives.
  EXPECT_FALSE(cache_->Cached(0));
}

TEST_F(CacheTest, FreshPrefetchAccepted) {
  uint64_t epoch = cache_->LockEpoch(7);
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  cache_->PutPrefetched(0, Block(0xEF), 7, epoch);
  cache_->EndPrefetch(0, 7);
  EXPECT_TRUE(cache_->Cached(0));
}

TEST_F(CacheTest, BeginPrefetchDedups) {
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  EXPECT_FALSE(cache_->BeginPrefetch(0, 7));  // already in flight
  cache_->EndPrefetch(0, 7);
  ASSERT_TRUE(cache_->PutDirty(4096, Block(2), 7, 0).ok());
  EXPECT_FALSE(cache_->BeginPrefetch(4096, 7));  // already cached
}

TEST_F(CacheTest, ReadWaitsForInflightPrefetch) {
  ASSERT_TRUE(cache_->BeginPrefetch(0, 7));
  std::atomic<bool> read_done{false};
  std::thread reader([&] {
    auto r = cache_->Read(0, 4096, 7);
    read_done.store(true);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ((*r)[0], 0x77);  // saw the prefetched content, no duplicate IO
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(read_done.load());
  cache_->PutPrefetched(0, Block(0x77), 7, cache_->LockEpoch(7));
  cache_->EndPrefetch(0, 7);
  reader.join();
  EXPECT_TRUE(read_done.load());
}

TEST_F(CacheTest, EvictionKeepsCacheBounded) {
  // Capacity 64 KB; insert 32 clean 4 KB blocks twice over.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(device_.Write(i * 4096, Block(static_cast<uint8_t>(i)), 0).ok());
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cache_->Read(i * 4096, 4096, 7).ok());
  }
  int cached = 0;
  for (int i = 0; i < 32; ++i) {
    if (cache_->Cached(i * 4096)) {
      ++cached;
    }
  }
  EXPECT_LE(cached, 16);  // 64 KB / 4 KB
  EXPECT_GT(cached, 0);
}

TEST_F(CacheTest, EvictionPicksTheGloballyOldestBeforeTheInsertReturns) {
  // Capacity 64 KB = 16 blocks. The oldest block lives in the 256 KB region
  // of shard 1; shard 0 then fills the cache, and its first block is read
  // again, so it is the newest.
  constexpr uint64_t kOtherShard = 256 * 1024;
  ASSERT_TRUE(cache_->Read(kOtherShard, 4096, 8).ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(cache_->Read(i * 4096, 4096, 7).ok());
  }
  ASSERT_TRUE(cache_->Read(0, 4096, 7).ok());
  EXPECT_TRUE(cache_->Cached(kOtherShard));
  // The 17th block takes the cache over capacity; eviction is done when the
  // read returns.
  ASSERT_TRUE(cache_->Read(15 * 4096, 4096, 7).ok());
  EXPECT_FALSE(cache_->Cached(kOtherShard));  // the oldest, in another shard
  EXPECT_FALSE(cache_->Cached(4096));         // the oldest of shard 0
  EXPECT_TRUE(cache_->Cached(0));             // touched recently
  EXPECT_TRUE(cache_->Cached(15 * 4096));     // just inserted
}

TEST_F(CacheTest, EvictionsAreCounted) {
  obs::Counter* evictions = obs::MetricsRegistry::Default()->GetCounter("fs.cache.evictions");
  const uint64_t before = evictions->value();
  // 32 clean blocks in two shards, then 16 dirty ones whose write-behind
  // and final flush make them evictable too.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cache_->Read(i * 4096, 4096, 7).ok());
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache_->PutDirty((64 + i) * 4096, Block(static_cast<uint8_t>(i)), 9, 0).ok());
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  uint64_t gone = 0;
  for (int i = 0; i < 80; ++i) {
    if ((i < 32 || i >= 64) && !cache_->Cached(i * 4096)) {
      ++gone;
    }
  }
  EXPECT_GE(gone, 32u);  // 48 blocks inserted, at most 16 fit
  EXPECT_EQ(evictions->value() - before, gone);
}

TEST_F(CacheTest, EvictionUnderConcurrentReadersAndWriteBehind) {
  // Readers of clean blocks, each in its own shard and each alone larger
  // than the cache, and a writer past the dirty high-water mark (whose write
  // runs evict as they complete) all run the evictor at once. TSan target.
  constexpr int kReaders = 3;
  constexpr int kBlocks = 24;
  constexpr int kRounds = 20;
  constexpr uint64_t kRegion = 256 * 1024;
  for (int t = 0; t < kReaders; ++t) {
    for (int i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE(device_.Write(t * kRegion + i * 4096, Block(static_cast<uint8_t>(t + 1)), 0).ok());
    }
  }
  std::vector<std::thread> workers;
  std::vector<Status> results(kReaders + 1, Unavailable("not run"));
  for (int t = 0; t < kReaders; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (int i = 0; i < kBlocks; ++i) {
          auto back = cache_->Read(t * kRegion + i * 4096, 4096, 100 + t);
          if (!back.ok() || (*back)[0] != t + 1) {
            results[t] = back.ok() ? Internal("read mismatch") : back.status();
            return;
          }
        }
      }
      results[t] = OkStatus();
    });
  }
  workers.emplace_back([&] {
    const uint64_t base = kReaders * kRegion;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kBlocks; ++i) {
        Status st = cache_->PutDirty(base + i * 4096, Block(static_cast<uint8_t>(r)), 200, 0);
        if (!st.ok()) {
          results[kReaders] = st;
          return;
        }
      }
    }
    results[kReaders] = OkStatus();
  });
  for (auto& w : workers) {
    w.join();
  }
  for (size_t t = 0; t < results.size(); ++t) {
    ASSERT_TRUE(results[t].ok()) << "thread " << t << ": " << results[t];
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  size_t cached = 0;
  for (int t = 0; t <= kReaders; ++t) {
    for (int i = 0; i < kBlocks; ++i) {
      cached += cache_->Cached(t * kRegion + i * 4096) ? 4096 : 0;
    }
  }
  EXPECT_LE(cached, 64u * 1024);
  EXPECT_GT(cached, 0u);
}

TEST_F(CacheTest, DirtyHiwaterThrottlesViaWriteback) {
  // 32 KB hiwater: writing 64 KB of dirty data forces write-behind.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache_->PutDirty(i * 4096, Block(static_cast<uint8_t>(i)), 7, 0).ok());
  }
  EXPECT_LE(cache_->dirty_bytes(), 32u * 1024);
  // Every block is durable or still dirty; flush the rest and verify all.
  ASSERT_TRUE(cache_->FlushAll().ok());
  for (int i = 0; i < 16; ++i) {
    Bytes back;
    ASSERT_TRUE(device_.Read(i * 4096, 4096, &back).ok());
    EXPECT_EQ(back[0], i) << i;
  }
}

TEST_F(CacheTest, DiscardAllDropsDirtyData) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(0x55), 7, 0).ok());
  cache_->DiscardAll();
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  EXPECT_FALSE(cache_->Cached(0));
  Bytes back;
  ASSERT_TRUE(device_.Read(0, 4096, &back).ok());
  EXPECT_EQ(back[0], 0);  // never written (lease-loss semantics)
}

TEST_F(CacheTest, DropCleanKeepsDirty) {
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, 0).ok());
  ASSERT_TRUE(device_.Write(4096, Block(2), 0).ok());
  ASSERT_TRUE(cache_->Read(4096, 4096, 7).ok());
  cache_->DropClean();
  EXPECT_TRUE(cache_->Cached(0));    // dirty survives
  EXPECT_FALSE(cache_->Cached(4096));  // clean dropped
}

TEST_F(CacheTest, ShardedConcurrentMixedTraffic) {
  // Threads work in 256 KB-spaced regions (one cache shard each) under
  // their own locks, mixing dirty writes, hits, flushes, invalidations,
  // and prefetches. The tiny capacity/hiwater force cross-shard eviction
  // and write-throttling while this runs. TSan target.
  constexpr int kThreads = 4;
  constexpr int kBlocks = 8;
  constexpr int kRounds = 3;
  constexpr uint64_t kRegion = 256 * 1024;
  std::vector<std::thread> workers;
  std::vector<Status> results(kThreads, Unavailable("not run"));
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const LockId lock = 100 + t;
      const uint64_t base = static_cast<uint64_t>(t) * kRegion;
      for (int r = 0; r < kRounds; ++r) {
        uint8_t fill = static_cast<uint8_t>(1 + t * kRounds + r);
        for (int i = 0; i < kBlocks; ++i) {
          Status st = cache_->PutDirty(base + i * 4096, Block(fill), lock, 0);
          if (!st.ok()) {
            results[t] = st;
            return;
          }
        }
        auto back = cache_->Read(base, 4096, lock);
        if (!back.ok() || (*back)[0] != fill) {
          results[t] = back.ok() ? Internal("readback mismatch") : back.status();
          return;
        }
        Status st = cache_->FlushLock(lock);
        if (!st.ok()) {
          results[t] = st;
          return;
        }
        cache_->InvalidateLock(lock);
        // Prefetch under the post-invalidation epoch must be accepted.
        uint64_t epoch = cache_->LockEpoch(lock);
        if (cache_->BeginPrefetch(base, lock)) {
          cache_->PutPrefetched(base, Block(fill), lock, epoch);
          cache_->EndPrefetch(base, lock);
        }
      }
      results[t] = OkStatus();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << "thread " << t << ": " << results[t];
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  // Every region's final round reached the device intact.
  for (int t = 0; t < kThreads; ++t) {
    uint8_t fill = static_cast<uint8_t>(1 + t * kRounds + (kRounds - 1));
    for (int i = 0; i < kBlocks; ++i) {
      Bytes back;
      ASSERT_TRUE(device_.Read(t * kRegion + i * 4096, 4096, &back).ok());
      EXPECT_EQ(back[0], fill) << "thread " << t << " block " << i;
    }
  }
}

// Write-behind flushes the oldest dirty blocks first while FlushLock claims
// in address order; writing blocks in descending address order makes the two
// orders opposite. Flushers of overlapping sets must never wait on each
// other while holding claims, or they deadlock.
TEST_F(CacheTest, OverlappingFlushersFinish) {
  constexpr int kBlocks = 32;  // 128 KB: one shard region
  obs::Recorder* rec = obs::Recorder::Default();
  rec->Clear();
  rec->Enable(true);
  auto work = std::async(std::launch::async, [&] {
    std::atomic<bool> stop{false};
    std::thread flusher([&] {
      while (!stop.load()) {
        EXPECT_TRUE(cache_->FlushLock(7).ok());
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w) {
      writers.emplace_back([&, w] {
        for (int round = 0; round < 1000; ++round) {
          for (int b = kBlocks - 1; b >= 0; --b) {
            Bytes data = Block(static_cast<uint8_t>(w + round));
            EXPECT_TRUE(cache_->PutDirty(uint64_t(b) * 4096, std::move(data), 7, 0).ok());
          }
        }
      });
    }
    for (auto& t : writers) {
      t.join();
    }
    stop = true;
    flusher.join();
  });
  if (work.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "OverlappingFlushersFinish: flushers deadlocked\n");
    std::_Exit(1);  // the stuck threads cannot be joined
  }
  ASSERT_TRUE(cache_->FlushAll().ok());
  EXPECT_EQ(cache_->dirty_bytes(), 0u);
  // Flushers claiming the same blocks waited each other out, and every such
  // wait is a span.
  rec->Enable(false);
  size_t claim_waits = 0;
  for (const obs::TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "fs.cache.claim_wait") {
      ++claim_waits;
    }
  }
  rec->Clear();
  EXPECT_GT(claim_waits, 0u);
}

TEST_F(CacheTest, FlushPinnedUpToSelectsByLsn) {
  LogRecord r1, r2;
  LogBlockUpdate u;
  u.addr = 0;
  u.kind = BlockKind::kMeta4k;
  u.version = 1;
  u.ranges.push_back({0, Bytes(8, 1)});
  r1.updates.push_back(u);
  u.addr = 4096;
  r2.updates.push_back(u);
  StatusOr<uint64_t> lsn1_or = wal_->Append(std::move(r1));
  ASSERT_TRUE(lsn1_or.ok());
  uint64_t lsn1 = *lsn1_or;
  StatusOr<uint64_t> lsn2_or = wal_->Append(std::move(r2));
  ASSERT_TRUE(lsn2_or.ok());
  uint64_t lsn2 = *lsn2_or;
  ASSERT_TRUE(cache_->PutDirty(0, Block(1), 7, lsn1).ok());
  ASSERT_TRUE(cache_->PutDirty(4096, Block(2), 7, lsn2).ok());
  ASSERT_TRUE(cache_->FlushPinnedUpTo(lsn1).ok());
  Bytes back;
  ASSERT_TRUE(device_.Read(0, 4096, &back).ok());
  EXPECT_EQ(back[0], 1);  // lsn1 block flushed
  ASSERT_TRUE(device_.Read(4096, 4096, &back).ok());
  EXPECT_EQ(back[0], 0);  // lsn2 block still dirty in cache
}

}  // namespace
}  // namespace frangipani
