// Per-server block cache (the paper's kernel buffer pool, §2.1/§5).
//
// Every cached block is associated with the lock that covers it. Coherence
// is driven entirely by the lock protocol:
//  - a block may be cached only while its lock is held (shared or exclusive);
//  - on write-lock release/downgrade the dirty blocks are flushed to Petal
//    (never forwarded cache-to-cache), on release the entries are dropped;
//  - dirty metadata blocks are pinned by the lsn of the last log record that
//    described their update; the WAL is flushed up to that lsn before the
//    block itself is written (write-ahead rule, §4).
//
// Every flush is one write-back batch (WriteBack): claim the selected dirty
// entries across all shards, coalesce them into <=256 KB runs, put the runs
// of unlogged data (pin_lsn == 0) on the IO pool at once, and write the
// LSN-pinned metadata runs only once the log is durable past their pins.
// Data is unordered against the log, so an fsync's data writes go out
// alongside its log write instead of behind it. Write-behind (dirty data
// above a high-water mark) uses the same batch, which is what pipelines
// large writes across Petal servers.
// The cache keeps one LRU across its shards: write-behind picks the globally
// oldest dirty entries and eviction the globally oldest clean ones, both
// through OldestEntries. Eviction runs synchronously in the thread whose
// insert (or completed write run) took the cache over capacity.
// Prefetch inserts are epoch-guarded: an invalidation bumps the lock's epoch,
// so a prefetch whose epoch was sampled before the invalidation cannot
// repopulate stale data. The reader must sample it before it decides the
// lock covers the block (see FrangipaniFs::StartReadFetches).
//
// The cache is sharded by 256 KB address region (the flush-run coalescing
// bound), so concurrent hits on different regions never touch the same
// mutex and a coalesced flush run always stays within one shard. Block
// payloads are held behind shared_ptr<const Bytes> — a payload is only ever
// replaced wholesale, never mutated in place — so the hit path snapshots the
// pointer under the shard lock and copies outside it, and flush jobs pin
// payloads without copying. Byte/hit accounting is process-wide atomics;
// lock epochs live under their own mutex (shard.mu -> epoch_mu_ order).
#ifndef SRC_FS_BLOCK_CACHE_H_
#define SRC_FS_BLOCK_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/fs/device.h"
#include "src/fs/wal.h"
#include "src/lock/types.h"
#include "src/obs/metrics.h"

namespace frangipani {

struct BlockCacheOptions {
  size_t capacity_bytes = 64 << 20;
  size_t dirty_hiwater_bytes = 8 << 20;
  int io_threads = 8;
};

class BlockCache {
 public:
  // `node` tags the cache's wait spans in the flight recorder.
  BlockCache(BlockDevice* device, LogWriter* wal, BlockCacheOptions options,
             std::function<int64_t()> lease_expiry_us, uint32_t node = 0);
  ~BlockCache();

  // Read-through: returns a copy of the block at `addr` (exactly `size`
  // bytes), caching it under `lock`. The caller must hold `lock`.
  // `range_off` is the entry's offset in the lock's byte-range name space
  // (the file offset for data locks, 0 for metadata locks): the ranged
  // FlushLock/InvalidateLock variants select entries by it.
  StatusOr<Bytes> Read(uint64_t addr, uint32_t size, LockId lock, uint64_t range_off = 0);

  // Installs new (dirty) content. pin_lsn = 0 for user data (not logged),
  // else the lsn of the log record describing this update. May block when
  // dirty data exceeds the high-water mark (write throttling).
  Status PutDirty(uint64_t addr, Bytes data, LockId lock, uint64_t pin_lsn,
                  uint64_t range_off = 0);

  // Inserts clean data (prefetch). Dropped if the lock's epoch changed since
  // `epoch` was sampled or the entry is already present.
  void PutPrefetched(uint64_t addr, Bytes data, LockId lock, uint64_t epoch,
                     uint64_t range_off = 0);
  uint64_t LockEpoch(LockId lock) const;

  // Prefetch coordination: a reader that misses on a block that is being
  // prefetched waits for the prefetch instead of issuing a duplicate read.
  // BeginPrefetch returns false if the block is already cached or in flight.
  // InvalidateLock waits for the lock's in-flight prefetches to finish: the
  // work to read them "turns out to have been wasted" and delays the lock
  // handoff — the read-ahead penalty the paper measures in Figure 8.
  bool BeginPrefetch(uint64_t addr, LockId lock);
  void EndPrefetch(uint64_t addr, LockId lock);

  bool Cached(uint64_t addr) const;

  // Flushes dirty blocks covered by `lock` whose range_off extent overlaps
  // [start, end) as one write-back batch; entries stay cached. Dirty blocks
  // of the same lock outside the range are untouched — a partial revoke
  // writes only the revoked extent. If `flushed_bytes` is non-null it
  // receives the number of payload bytes written.
  Status FlushLock(LockId lock, uint64_t start = 0, uint64_t end = kRangeEnd,
                   size_t* flushed_bytes = nullptr);
  // Fsync: one batch that writes every dirty block of `locks` and makes the
  // log durable through `log_lsn`. The unlogged data goes out while the log
  // is written; the pinned metadata follows the log.
  Status FlushLocks(const std::vector<LockId>& locks, uint64_t log_lsn);
  // Drops every entry covered by `lock` overlapping [start, end) (after
  // FlushLock if dirty data must survive). Bumps the lock epoch (whole-lock:
  // in-flight prefetches anywhere under the lock are conservatively wasted).
  void InvalidateLock(LockId lock, uint64_t start = 0, uint64_t end = kRangeEnd);

  // Flushes every dirty block, and with `log_lsn` > 0 the log through that
  // lsn, in one batch (SyncAll, the sync demon).
  Status FlushAll(uint64_t log_lsn = 0);
  // Flushes every metadata block holding an update from a log record with
  // lsn <= bound that the disk may not hold, making the log durable through
  // each block's newest record first (log reclaim callback; it runs outside
  // any log flush). A block re-dirtied past the bound is written too: its
  // later records are diffs against the image the reclaimed ones left.
  Status FlushPinnedUpTo(uint64_t lsn);

  // Drops everything without writing (lease lost: the paper discards the
  // cache wholesale).
  void DiscardAll();

  // Evicts every clean entry (benchmarks invalidate the buffer cache before
  // uncached-read experiments, as the paper does in §9.2).
  void DropClean();

  size_t dirty_bytes() const { return dirty_bytes_.load(); }
  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }

 private:
  struct Entry {
    std::shared_ptr<const Bytes> data;
    LockId lock = 0;
    uint64_t range_off = 0;  // offset in the lock's byte-range name space
    bool dirty = false;
    bool flushing = false;
    uint64_t dirty_gen = 0;  // bumped on each PutDirty; detects overlap
    uint64_t pin_lsn = 0;
    // The oldest log record whose update this entry holds and the disk may
    // not (0 = none): the log reclaims that record only after writing it.
    uint64_t first_pin = 0;
    uint64_t lru_seq = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<uint64_t, Entry> entries;
    std::map<LockId, std::set<uint64_t>> by_lock;
    std::set<uint64_t> prefetch_inflight;
    std::map<LockId, int> prefetch_by_lock;
  };

  // Shard by 256 KB region, the flush-run bound: SubmitRuns cuts a run
  // where it crosses into another shard.
  static constexpr int kShardRegionShift = 18;
  static constexpr size_t kShards = 16;
  // Eviction frees down to capacity - capacity / kEvictSlackDivisor, so one
  // scan of every shard pays for an eighth of a cache's worth of inserts
  // rather than running again on each insert into a full cache.
  static constexpr size_t kEvictSlackDivisor = 8;
  size_t ShardIndex(uint64_t addr) const {
    return (addr >> kShardRegionShift) % shards_.size();
  }
  Shard& ShardFor(uint64_t addr) { return shards_[ShardIndex(addr)]; }
  const Shard& ShardFor(uint64_t addr) const { return shards_[ShardIndex(addr)]; }

  // Acquires `shard.mu`, recording the wait in fs.cache.shard_wait_us.
  std::unique_lock<std::mutex> LockShard(const Shard& shard) const;

  // A dirty entry claimed for writing (Entry::flushing set). The payload is
  // pinned by shared_ptr, not copied, while the shard lock is held.
  struct FlushJob {
    size_t shard;
    uint64_t addr;
    std::shared_ptr<const Bytes> data;
    uint64_t gen;
    uint64_t pin_lsn;
  };
  // What a write-back batch writes: the addresses of each shard to consider
  // (called under that shard's lock), and which of their dirty entries.
  using Candidates = std::function<std::vector<uint64_t>(size_t index, const Shard& shard)>;
  using Wanted = std::function<bool(const Entry&)>;
  struct Batch;

  // The one write-back routine behind every flush. Claims the selected
  // entries of all shards, puts the unpinned (data) runs on the IO pool at
  // once, makes the log durable through max(`log_lsn`, newest pin), then
  // writes the pinned (metadata) runs. The claims stay held across the log
  // write: a log flush never calls back into the cache (the log's space
  // reclaim runs from an append, not from a flush).
  Status WriteBack(const Candidates& candidates, const Wanted& wanted, uint64_t log_lsn,
                   size_t* flushed_bytes = nullptr);
  // Claims the candidate entries that `wanted` accepts, shard by shard in
  // index order (so a claimant only ever waits in a shard above those it
  // holds claims in).
  std::vector<FlushJob> ClaimAll(const Candidates& candidates, const Wanted& wanted);
  // One shard of ClaimAll (caller holds `shard.mu` via `lk`). Waits out
  // in-flight flushes of the whole set before claiming any of it, so two
  // flushers of overlapping sets never each hold part of the other's.
  void ClaimLocked(Shard& shard, size_t index, const std::vector<uint64_t>& addrs,
                   std::unique_lock<std::mutex>& lk, const Wanted& wanted,
                   std::vector<FlushJob>* jobs);
  // Clears the claims of `jobs` (grouped by shard) and wakes waiters.
  void ReleaseClaims(const std::vector<FlushJob>& jobs);
  // Coalesces `jobs` into address-contiguous runs of at most 256 KB within a
  // shard and puts each run on the IO pool; each run releases its own claims
  // when its write completes.
  void SubmitRuns(std::vector<FlushJob> jobs, Batch* batch);
  void WriteRun(const std::vector<FlushJob>& run, int64_t fence, Batch* batch);
  // Write-ahead rule: true when the log is durable through `lsn`.
  bool LogDurableTo(uint64_t lsn) const;
  // The one LRU: the addresses, per shard, of the globally oldest entries
  // that `pick` accepts, until they cover `bytes`. Locks one shard at a time.
  std::vector<std::vector<uint64_t>> OldestEntries(const Wanted& pick, size_t bytes);
  // While the cache is over capacity, drops the globally oldest clean
  // entries, down to kEvictSlackDivisor below capacity. Called with no shard
  // lock held; a thread that finds another evictor running leaves the work
  // to it.
  void EvictClean();

  BlockDevice* device_;
  LogWriter* wal_;
  BlockCacheOptions options_;
  std::function<int64_t()> lease_expiry_us_;
  uint32_t node_;

  std::vector<Shard> shards_;

  // Lock epochs are global (a lock covers addresses in many shards). Lock
  // order: shard.mu before epoch_mu_; never the reverse.
  mutable std::mutex epoch_mu_;
  std::map<LockId, uint64_t> epochs_;

  // Write throttling: PutDirty waits here when every dirty entry is already
  // being flushed; flush completions in any shard notify.
  std::mutex throttle_mu_;
  std::condition_variable throttle_cv_;

  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> dirty_bytes_{0};
  std::atomic<uint64_t> lru_counter_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  // Registry aggregates (process-wide, across all fs instances).
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_evictions_;
  Histogram* m_shard_wait_us_;

  // Held (try-lock) by the one thread running EvictClean.
  std::mutex evict_mu_;

  // Runs write runs only.
  std::unique_ptr<ThreadPool> io_pool_;
};

}  // namespace frangipani

#endif  // SRC_FS_BLOCK_CACHE_H_
