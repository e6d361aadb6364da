#include "src/fs/block_cache.h"

#include <algorithm>
#include <chrono>

#include "src/base/logging.h"
#include "src/obs/trace.h"

namespace frangipani {

BlockCache::BlockCache(BlockDevice* device, LogWriter* wal, BlockCacheOptions options,
                       std::function<int64_t()> lease_expiry_us)
    : device_(device),
      wal_(wal),
      options_(options),
      lease_expiry_us_(std::move(lease_expiry_us)),
      shards_(options.shards < 1 ? 1 : options.shards) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_hits_ = reg->GetCounter("fs.cache.hits");
  m_misses_ = reg->GetCounter("fs.cache.misses");
  m_cross_shard_evictions_ = reg->GetCounter("fs.cache.cross_shard_evictions");
  m_shard_wait_us_ = reg->GetHistogram("fs.cache.shard_wait_us");
  reg->GetGauge("fs.cache.shards")->Set(static_cast<int64_t>(shards_.size()));
  io_pool_ = std::make_unique<ThreadPool>(options_.io_threads);
}

BlockCache::~BlockCache() = default;

std::unique_lock<std::mutex> BlockCache::LockShard(const Shard& shard) const {
  std::unique_lock<std::mutex> lk(shard.mu, std::defer_lock);
  obs::LockTimed(lk, m_shard_wait_us_);
  return lk;
}

StatusOr<Bytes> BlockCache::Read(uint64_t addr, uint32_t size, LockId lock,
                                 uint64_t range_off) {
  Shard& shard = ShardFor(addr);
  std::shared_ptr<const Bytes> blob;
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    // Ride an in-flight prefetch rather than duplicating its device read.
    shard.cv.wait(lk, [&] { return shard.prefetch_inflight.count(addr) == 0; });
    auto it = shard.entries.find(addr);
    if (it != shard.entries.end()) {
      ++hits_;
      m_hits_->Increment();
      it->second.lru_seq = ++lru_counter_;
      blob = it->second.data;
    } else {
      ++misses_;
      m_misses_->Increment();
    }
  }
  if (blob != nullptr) {
    return *blob;  // copied outside the shard lock
  }
  Bytes data;
  RETURN_IF_ERROR(device_->Read(addr, size, &data));
  blob = std::make_shared<const Bytes>(std::move(data));
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    auto it = shard.entries.find(addr);
    if (it != shard.entries.end()) {
      blob = it->second.data;  // someone raced us in; theirs may be dirtier
    } else {
      Entry e;
      e.data = blob;
      e.lock = lock;
      e.range_off = range_off;
      e.lru_seq = ++lru_counter_;
      bytes_ += blob->size();
      shard.entries.emplace(addr, std::move(e));
      shard.by_lock[lock].insert(addr);
      EvictShardLocked(shard, ShardIndex(addr));
    }
  }
  return *blob;
}

Status BlockCache::PutDirty(uint64_t addr, Bytes data, LockId lock, uint64_t pin_lsn,
                            uint64_t range_off) {
  Shard& home = ShardFor(addr);
  {
    std::unique_lock<std::mutex> lk = LockShard(home);
    Entry& e = home.entries[addr];
    if (e.data == nullptr) {
      home.by_lock[lock].insert(addr);
    } else {
      bytes_ -= e.data->size();
      if (e.dirty) {
        dirty_bytes_ -= e.data->size();
      }
    }
    e.lock = lock;
    e.range_off = range_off;
    e.data = std::make_shared<const Bytes>(std::move(data));
    e.dirty = true;
    e.dirty_gen++;
    e.pin_lsn = std::max(e.pin_lsn, pin_lsn);
    e.lru_seq = ++lru_counter_;
    bytes_ += e.data->size();
    dirty_bytes_ += e.data->size();
    EvictShardLocked(home, ShardIndex(addr));
  }

  // Write throttling / write-behind: bring dirty data back under control.
  // Candidates are gathered across all shards (oldest first, globally), then
  // flushed shard by shard.
  while (dirty_bytes_.load() > options_.dirty_hiwater_bytes) {
    struct Cand {
      uint64_t lru;
      uint64_t addr;
      size_t size;
      size_t shard;
    };
    std::vector<Cand> dirty;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = shards_[s];
      std::unique_lock<std::mutex> lk = LockShard(shard);
      for (const auto& [a, entry] : shard.entries) {
        if (entry.dirty && !entry.flushing) {
          dirty.push_back({entry.lru_seq, a, entry.data->size(), s});
        }
      }
    }
    if (dirty.empty()) {
      // Everything dirty is already being flushed; wait for progress. The
      // timeout covers a flush that completed between our scan and the wait.
      std::unique_lock<std::mutex> tlk(throttle_mu_);
      throttle_cv_.wait_for(tlk, std::chrono::milliseconds(1));
      continue;
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const Cand& a, const Cand& b) { return a.lru < b.lru; });
    size_t target = options_.dirty_hiwater_bytes / 2;
    size_t start_dirty = dirty_bytes_.load();
    std::vector<std::vector<uint64_t>> per_shard(shards_.size());
    size_t would_free = 0;
    for (const Cand& c : dirty) {
      per_shard[c.shard].push_back(c.addr);
      would_free += c.size;
      if (start_dirty - would_free <= target) {
        break;
      }
    }
    Status st = OkStatus();
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (per_shard[s].empty()) {
        continue;
      }
      std::unique_lock<std::mutex> lk = LockShard(shards_[s]);
      Status one = FlushShardSetLocked(shards_[s], per_shard[s], lk);
      if (!one.ok() && st.ok()) {
        st = one;
      }
    }
    RETURN_IF_ERROR(st);
  }
  return OkStatus();
}

void BlockCache::PutPrefetched(uint64_t addr, Bytes data, LockId lock, uint64_t epoch,
                               uint64_t range_off) {
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  {
    // Epoch check while holding the shard lock: an invalidation bumps the
    // epoch before it sweeps the shards, so either we see the bump here or
    // the sweep (which follows the same shard lock) sees our entry.
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    auto eit = epochs_.find(lock);
    uint64_t current = eit == epochs_.end() ? 0 : eit->second;
    if (current != epoch) {
      return;  // lock was invalidated since the prefetch was issued
    }
  }
  if (shard.entries.count(addr) > 0) {
    return;  // raced with a demand read
  }
  Entry e;
  e.lock = lock;
  e.range_off = range_off;
  e.lru_seq = ++lru_counter_;
  e.data = std::make_shared<const Bytes>(std::move(data));
  bytes_ += e.data->size();
  shard.entries.emplace(addr, std::move(e));
  shard.by_lock[lock].insert(addr);
  EvictShardLocked(shard, ShardIndex(addr));
}

bool BlockCache::BeginPrefetch(uint64_t addr, LockId lock) {
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  if (shard.entries.count(addr) > 0 || shard.prefetch_inflight.count(addr) > 0) {
    return false;
  }
  shard.prefetch_inflight.insert(addr);
  shard.prefetch_by_lock[lock]++;
  return true;
}

void BlockCache::EndPrefetch(uint64_t addr, LockId lock) {
  Shard& shard = ShardFor(addr);
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    shard.prefetch_inflight.erase(addr);
    if (--shard.prefetch_by_lock[lock] <= 0) {
      shard.prefetch_by_lock.erase(lock);
    }
  }
  shard.cv.notify_all();
}

uint64_t BlockCache::LockEpoch(LockId lock) const {
  std::lock_guard<std::mutex> guard(epoch_mu_);
  auto it = epochs_.find(lock);
  return it == epochs_.end() ? 0 : it->second;
}

bool BlockCache::Cached(uint64_t addr) const {
  const Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  return shard.entries.count(addr) > 0;
}

bool BlockCache::LogDurableTo(uint64_t max_pin) const {
  return max_pin == 0 || wal_ == nullptr || wal_->flushed_lsn() >= max_pin;
}

uint64_t BlockCache::ClaimLocked(Shard& shard, const std::vector<uint64_t>& addrs,
                                 std::unique_lock<std::mutex>& lk,
                                 const std::function<bool(const Entry&)>& wanted,
                                 std::vector<FlushJob>* jobs) {
  auto pick = [&](uint64_t addr) -> Entry* {
    auto it = shard.entries.find(addr);
    return it != shard.entries.end() && it->second.dirty && wanted(it->second) ? &it->second
                                                                                : nullptr;
  };
  // Wait out in-flight flushes of the set, then claim all of it at once:
  // a flusher never waits on another while holding claims in this shard,
  // so two flushers of overlapping sets cannot wait on each other.
  shard.cv.wait(lk, [&] {
    for (uint64_t addr : addrs) {
      Entry* e = pick(addr);
      if (e != nullptr && e->flushing) {
        return false;
      }
    }
    return true;
  });
  uint64_t max_pin = 0;
  for (uint64_t addr : addrs) {
    if (Entry* e = pick(addr)) {
      e->flushing = true;
      jobs->push_back({addr, e->data, e->dirty_gen, e->pin_lsn});
      max_pin = std::max(max_pin, e->pin_lsn);
    }
  }
  return max_pin;
}

void BlockCache::ReleaseClaimsLocked(Shard& shard, const std::vector<FlushJob>& jobs) {
  for (const FlushJob& j : jobs) {
    auto it = shard.entries.find(j.addr);
    if (it != shard.entries.end()) {
      it->second.flushing = false;
    }
  }
  shard.cv.notify_all();
}

Status BlockCache::FlushShardSetLocked(Shard& shard, const std::vector<uint64_t>& addrs,
                                       std::unique_lock<std::mutex>& lk, uint64_t pin_bound) {
  std::vector<FlushJob> jobs;
  for (;;) {
    uint64_t max_pin = ClaimLocked(
        shard, addrs, lk, [&](const Entry& e) { return e.pin_lsn <= pin_bound; }, &jobs);
    if (jobs.empty()) {
      return OkStatus();
    }
    if (LogDurableTo(max_pin)) {
      break;
    }
    ReleaseClaimsLocked(shard, jobs);
    jobs.clear();
    lk.unlock();
    Status st = wal_->FlushTo(max_pin);
    lk.lock();
    RETURN_IF_ERROR(st);
  }
  lk.unlock();

  Status st = OkStatus();
  std::vector<Status> results(jobs.size());
  {
    int64_t fence = lease_expiry_us_ ? lease_expiry_us_() : 0;
    // Coalesce address-adjacent dirty blocks into contiguous device writes
    // (sequential file data flushes mostly adjacent 4 KB blocks); each run
    // is one transfer that the Petal client then scatter-gathers across
    // servers. Runs are written concurrently by the IO pool. A run is at
    // most 256 KB, i.e. at most one shard region, by construction.
    std::sort(jobs.begin(), jobs.end(),
              [](const FlushJob& a, const FlushJob& b) { return a.addr < b.addr; });
    constexpr size_t kMaxRunBytes = 256 << 10;
    struct Run {
      size_t first_job;
      size_t num_jobs;
    };
    std::vector<Run> runs;
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (!runs.empty()) {
        Run& r = runs.back();
        const FlushJob& prev = jobs[i - 1];
        size_t run_bytes = jobs[i].addr + jobs[i].data->size() - jobs[r.first_job].addr;
        if (prev.addr + prev.data->size() == jobs[i].addr && run_bytes <= kMaxRunBytes) {
          ++r.num_jobs;
          continue;
        }
      }
      runs.push_back({i, 1});
    }
    std::vector<Status> run_results(runs.size());
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t done = 0;
    // The runs' Petal spans are children of the op that flushes.
    const uint64_t trace_id = obs::CurrentTraceId();
    for (size_t r = 0; r < runs.size(); ++r) {
      io_pool_->Submit([&, r] {
        obs::InheritedTraceScope inherit(trace_id);
        const Run& run = runs[r];
        if (run.num_jobs == 1) {
          const FlushJob& j = jobs[run.first_job];
          run_results[r] = device_->Write(j.addr, *j.data, fence);
        } else {
          Bytes merged;
          size_t total = jobs[run.first_job + run.num_jobs - 1].addr +
                         jobs[run.first_job + run.num_jobs - 1].data->size() -
                         jobs[run.first_job].addr;
          merged.reserve(total);
          for (size_t k = 0; k < run.num_jobs; ++k) {
            const Bytes& d = *jobs[run.first_job + k].data;
            merged.insert(merged.end(), d.begin(), d.end());
          }
          run_results[r] = device_->Write(jobs[run.first_job].addr, merged, fence);
        }
        std::lock_guard<std::mutex> guard(done_mu);
        ++done;
        done_cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> done_lk(done_mu);
    done_cv.wait(done_lk, [&] { return done == runs.size(); });
    for (size_t r = 0; r < runs.size(); ++r) {
      for (size_t k = 0; k < runs[r].num_jobs; ++k) {
        results[runs[r].first_job + k] = run_results[r];
      }
    }
    for (const Status& r : run_results) {
      if (!r.ok()) {
        st = r;
      }
    }
  }

  lk.lock();
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto it = shard.entries.find(jobs[i].addr);
    if (it == shard.entries.end()) {
      continue;  // discarded while we wrote (lease loss)
    }
    it->second.flushing = false;
    if (st.ok() && results[i].ok() && it->second.dirty_gen == jobs[i].gen) {
      it->second.dirty = false;
      it->second.pin_lsn = 0;
      dirty_bytes_ -= it->second.data->size();
      uint64_t adv = shard.oldest_clean_seq.load(std::memory_order_relaxed);
      if (it->second.lru_seq < adv) {
        shard.oldest_clean_seq.store(it->second.lru_seq, std::memory_order_relaxed);
      }
    }
  }
  // Dirty data can push the cache past its capacity (dirty entries are not
  // evictable); reclaim now that some entries are clean again.
  EvictShardLocked(shard, static_cast<size_t>(&shard - shards_.data()));
  shard.cv.notify_all();
  throttle_cv_.notify_all();
  return st;
}

Status BlockCache::FlushLock(LockId lock, uint64_t start, uint64_t end, size_t* flushed_bytes) {
  // Phase 1: claim the covered dirty entries of every shard. Nothing is
  // written until the full set is claimed, so the whole revoke flush turns
  // into one batch of coalesced write runs issued concurrently rather than
  // a serial wave of rounds per shard.
  std::vector<std::vector<FlushJob>> shard_jobs(shards_.size());
  size_t total_jobs = 0;
  for (;;) {
    uint64_t max_pin = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = shards_[s];
      std::unique_lock<std::mutex> lk = LockShard(shard);
      auto it = shard.by_lock.find(lock);
      if (it == shard.by_lock.end()) {
        continue;
      }
      std::vector<uint64_t> addrs(it->second.begin(), it->second.end());
      // Entries outside the revoked extent stay dirty and cached.
      auto covered = [&](const Entry& e) {
        return e.range_off < end && e.range_off + e.data->size() > start;
      };
      max_pin = std::max(max_pin, ClaimLocked(shard, addrs, lk, covered, &shard_jobs[s]));
      total_jobs += shard_jobs[s].size();
    }
    if (total_jobs == 0) {
      if (flushed_bytes != nullptr) {
        *flushed_bytes = 0;
      }
      return OkStatus();
    }
    if (LogDurableTo(max_pin)) {
      break;
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (!shard_jobs[s].empty()) {
        std::unique_lock<std::mutex> lk = LockShard(shards_[s]);
        ReleaseClaimsLocked(shards_[s], shard_jobs[s]);
        shard_jobs[s].clear();
      }
    }
    total_jobs = 0;
    RETURN_IF_ERROR(wal_->FlushTo(max_pin));
  }

  // Phase 2: all coalesced runs of all shards in flight on the IO pool at
  // once.
  Status st = OkStatus();
  std::vector<std::vector<Status>> shard_results(shards_.size());
  size_t bytes_out = 0;
  {
    int64_t fence = lease_expiry_us_ ? lease_expiry_us_() : 0;
    constexpr size_t kMaxRunBytes = 256 << 10;
    struct Run {
      size_t shard;
      size_t first_job;
      size_t num_jobs;
    };
    std::vector<Run> runs;
    for (size_t s = 0; s < shards_.size(); ++s) {
      std::vector<FlushJob>& jobs = shard_jobs[s];
      shard_results[s].assign(jobs.size(), OkStatus());
      std::sort(jobs.begin(), jobs.end(),
                [](const FlushJob& a, const FlushJob& b) { return a.addr < b.addr; });
      for (size_t i = 0; i < jobs.size(); ++i) {
        bytes_out += jobs[i].data->size();
        if (!runs.empty() && runs.back().shard == s) {
          Run& r = runs.back();
          const FlushJob& prev = jobs[i - 1];
          size_t run_bytes = jobs[i].addr + jobs[i].data->size() - jobs[r.first_job].addr;
          if (prev.addr + prev.data->size() == jobs[i].addr && run_bytes <= kMaxRunBytes) {
            ++r.num_jobs;
            continue;
          }
        }
        runs.push_back({s, i, 1});
      }
    }
    std::vector<Status> run_results(runs.size());
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t done = 0;
    // The runs' Petal spans are children of the op that flushes.
    const uint64_t trace_id = obs::CurrentTraceId();
    for (size_t r = 0; r < runs.size(); ++r) {
      io_pool_->Submit([&, r] {
        obs::InheritedTraceScope inherit(trace_id);
        const Run& run = runs[r];
        const std::vector<FlushJob>& jobs = shard_jobs[run.shard];
        if (run.num_jobs == 1) {
          const FlushJob& j = jobs[run.first_job];
          run_results[r] = device_->Write(j.addr, *j.data, fence);
        } else {
          Bytes merged;
          size_t total = jobs[run.first_job + run.num_jobs - 1].addr +
                         jobs[run.first_job + run.num_jobs - 1].data->size() -
                         jobs[run.first_job].addr;
          merged.reserve(total);
          for (size_t k = 0; k < run.num_jobs; ++k) {
            const Bytes& d = *jobs[run.first_job + k].data;
            merged.insert(merged.end(), d.begin(), d.end());
          }
          run_results[r] = device_->Write(jobs[run.first_job].addr, merged, fence);
        }
        std::lock_guard<std::mutex> guard(done_mu);
        ++done;
        done_cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> done_lk(done_mu);
    done_cv.wait(done_lk, [&] { return done == runs.size(); });
    for (size_t r = 0; r < runs.size(); ++r) {
      for (size_t k = 0; k < runs[r].num_jobs; ++k) {
        shard_results[runs[r].shard][runs[r].first_job + k] = run_results[r];
      }
      if (!run_results[r].ok() && st.ok()) {
        st = run_results[r];
      }
    }
  }

  // Phase 3: release claims, mark clean.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_jobs[s].empty()) {
      continue;
    }
    Shard& shard = shards_[s];
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (size_t i = 0; i < shard_jobs[s].size(); ++i) {
      const FlushJob& j = shard_jobs[s][i];
      auto it = shard.entries.find(j.addr);
      if (it == shard.entries.end()) {
        continue;
      }
      it->second.flushing = false;
      if (st.ok() && shard_results[s][i].ok() && it->second.dirty_gen == j.gen) {
        it->second.dirty = false;
        it->second.pin_lsn = 0;
        dirty_bytes_ -= it->second.data->size();
        uint64_t adv = shard.oldest_clean_seq.load(std::memory_order_relaxed);
        if (it->second.lru_seq < adv) {
          shard.oldest_clean_seq.store(it->second.lru_seq, std::memory_order_relaxed);
        }
      }
    }
    EvictShardLocked(shard, s);
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
  if (flushed_bytes != nullptr) {
    *flushed_bytes = st.ok() ? bytes_out : 0;
  }
  return st;
}

void BlockCache::InvalidateLock(LockId lock, uint64_t start, uint64_t end) {
  {
    // Bump the epoch before sweeping so a prefetch completing mid-sweep
    // cannot repopulate a shard we already cleaned (PutPrefetched re-checks
    // the epoch under its shard lock).
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    epochs_[lock]++;
  }
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    // Wait out in-flight read-ahead under this lock: the prefetched data
    // will be discarded, and the time to finish reading it delays the
    // handoff.
    shard.cv.wait(lk, [&] { return shard.prefetch_by_lock.count(lock) == 0; });
    auto it = shard.by_lock.find(lock);
    if (it == shard.by_lock.end()) {
      continue;
    }
    for (auto ait = it->second.begin(); ait != it->second.end();) {
      auto eit = shard.entries.find(*ait);
      if (eit == shard.entries.end()) {
        ait = it->second.erase(ait);
        continue;
      }
      if (eit->second.range_off >= end ||
          eit->second.range_off + eit->second.data->size() <= start) {
        ++ait;  // outside the dropped extent: the lock is still held there
        continue;
      }
      // Callers flush before invalidating; anything still dirty here is
      // being dropped deliberately (it must not be written after the lock
      // moves on).
      bytes_ -= eit->second.data->size();
      if (eit->second.dirty) {
        dirty_bytes_ -= eit->second.data->size();
      }
      shard.entries.erase(eit);
      ait = it->second.erase(ait);
    }
    if (it->second.empty()) {
      shard.by_lock.erase(it);
    }
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
}

Status BlockCache::FlushAll() {
  Status st = OkStatus();
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    std::vector<uint64_t> addrs;
    for (const auto& [addr, e] : shard.entries) {
      if (e.dirty) {
        addrs.push_back(addr);
      }
    }
    Status one = FlushShardSetLocked(shard, addrs, lk);
    if (!one.ok() && st.ok()) {
      st = one;
    }
  }
  return st;
}

Status BlockCache::FlushPinnedUpTo(uint64_t lsn) {
  Status st = OkStatus();
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    std::vector<uint64_t> addrs;
    for (const auto& [addr, e] : shard.entries) {
      if (e.dirty && e.pin_lsn != 0 && e.pin_lsn <= lsn) {
        addrs.push_back(addr);
      }
    }
    Status one = FlushShardSetLocked(shard, addrs, lk, /*pin_bound=*/lsn);
    if (!one.ok() && st.ok()) {
      st = one;
    }
  }
  return st;
}

void BlockCache::DiscardAll() {
  {
    std::lock_guard<std::mutex> eguard(epoch_mu_);
    for (auto& [lock, epoch] : epochs_) {
      ++epoch;
    }
  }
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (const auto& [addr, e] : shard.entries) {
      bytes_ -= e.data->size();
      if (e.dirty) {
        dirty_bytes_ -= e.data->size();
      }
    }
    shard.entries.clear();
    shard.by_lock.clear();
    shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
}

void BlockCache::DropClean() {
  for (Shard& shard : shards_) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (!it->second.dirty && !it->second.flushing) {
        bytes_ -= it->second.data->size();
        shard.by_lock[it->second.lock].erase(it->first);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
    shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
  }
}

void BlockCache::EvictShardLocked(Shard& shard, size_t self_index) {
  if (bytes_.load() <= options_.capacity_bytes) {
    return;
  }
  std::vector<std::pair<uint64_t, uint64_t>> clean;  // (lru, addr)
  for (const auto& [addr, e] : shard.entries) {
    if (!e.dirty && !e.flushing) {
      clean.emplace_back(e.lru_seq, addr);
    }
  }
  std::sort(clean.begin(), clean.end());
  shard.oldest_clean_seq.store(clean.empty() ? ~0ull : clean.front().first,
                               std::memory_order_relaxed);
  // Global LRU: if another shard advertises a clean entry colder than our
  // oldest victim, evicting here would sacrifice younger data just because
  // it shares a shard with the inserter. Defer to the async sweep instead.
  uint64_t my_oldest = clean.empty() ? ~0ull : clean.front().first;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (s != self_index &&
        shards_[s].oldest_clean_seq.load(std::memory_order_relaxed) < my_oldest) {
      ScheduleGlobalSweep();
      return;
    }
  }
  for (const auto& [lru, addr] : clean) {
    if (bytes_.load() <= options_.capacity_bytes) {
      break;
    }
    auto it = shard.entries.find(addr);
    bytes_ -= it->second.data->size();
    shard.by_lock[it->second.lock].erase(addr);
    shard.entries.erase(it);
  }
  // Re-advertise the new local minimum for future global comparisons.
  uint64_t min_seq = ~0ull;
  for (const auto& [addr, e] : shard.entries) {
    if (!e.dirty && !e.flushing) {
      min_seq = std::min(min_seq, e.lru_seq);
    }
  }
  shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
}

void BlockCache::ScheduleGlobalSweep() {
  if (sweep_scheduled_.exchange(true)) {
    return;  // a sweep is already queued or running
  }
  io_pool_->Submit([this] { SweepGlobalLru(); });
}

void BlockCache::SweepGlobalLru() {
  sweep_scheduled_.store(false);
  bool recomputed = false;
  while (bytes_.load() > options_.capacity_bytes) {
    // Pick the shard advertising the globally-coldest clean entry.
    size_t best = shards_.size();
    uint64_t best_seq = ~0ull;
    for (size_t s = 0; s < shards_.size(); ++s) {
      uint64_t seq = shards_[s].oldest_clean_seq.load(std::memory_order_relaxed);
      if (seq < best_seq) {
        best_seq = seq;
        best = s;
      }
    }
    if (best == shards_.size()) {
      // No shard advertises clean entries. Advertisements are approximate,
      // so recompute them once; if there is still nothing, everything is
      // dirty or in flight and the sweep cannot help.
      if (recomputed) {
        return;
      }
      recomputed = true;
      for (Shard& shard : shards_) {
        std::unique_lock<std::mutex> lk = LockShard(shard);
        uint64_t min_seq = ~0ull;
        for (const auto& [addr, e] : shard.entries) {
          if (!e.dirty && !e.flushing) {
            min_seq = std::min(min_seq, e.lru_seq);
          }
        }
        shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
      }
      continue;
    }
    Shard& shard = shards_[best];
    std::unique_lock<std::mutex> lk = LockShard(shard);
    std::vector<std::pair<uint64_t, uint64_t>> clean;
    for (const auto& [addr, e] : shard.entries) {
      if (!e.dirty && !e.flushing) {
        clean.emplace_back(e.lru_seq, addr);
      }
    }
    if (clean.empty()) {
      shard.oldest_clean_seq.store(~0ull, std::memory_order_relaxed);
      continue;
    }
    std::sort(clean.begin(), clean.end());
    uint64_t evicted = 0;
    for (const auto& [lru, addr] : clean) {
      if (bytes_.load() <= options_.capacity_bytes) {
        break;
      }
      auto it = shard.entries.find(addr);
      bytes_ -= it->second.data->size();
      shard.by_lock[it->second.lock].erase(addr);
      shard.entries.erase(it);
      ++evicted;
    }
    uint64_t min_seq = ~0ull;
    for (const auto& [addr, e] : shard.entries) {
      if (!e.dirty && !e.flushing) {
        min_seq = std::min(min_seq, e.lru_seq);
      }
    }
    shard.oldest_clean_seq.store(min_seq, std::memory_order_relaxed);
    if (evicted > 0) {
      m_cross_shard_evictions_->Increment(evicted);
    }
  }
}

}  // namespace frangipani
