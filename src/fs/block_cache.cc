#include "src/fs/block_cache.h"

#include <algorithm>
#include <chrono>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

namespace {

// Write-back candidates: the cached addresses of `locks`, or every dirty one.
std::vector<uint64_t> AddrsOfLocks(const std::map<LockId, std::set<uint64_t>>& by_lock,
                                   const std::vector<LockId>& locks) {
  std::vector<uint64_t> addrs;
  for (LockId lock : locks) {
    auto it = by_lock.find(lock);
    if (it != by_lock.end()) {
      addrs.insert(addrs.end(), it->second.begin(), it->second.end());
    }
  }
  return addrs;
}

template <typename Map>
std::vector<uint64_t> DirtyAddrs(const Map& entries) {
  std::vector<uint64_t> addrs;
  for (const auto& [addr, e] : entries) {
    if (e.dirty) {
      addrs.push_back(addr);
    }
  }
  return addrs;
}

}  // namespace

BlockCache::BlockCache(BlockDevice* device, LogWriter* wal, BlockCacheOptions options,
                       std::function<int64_t()> lease_expiry_us, uint32_t node)
    : device_(device),
      wal_(wal),
      options_(options),
      lease_expiry_us_(std::move(lease_expiry_us)),
      node_(node),
      shards_(kShards) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_hits_ = reg->GetCounter("fs.cache.hits");
  m_misses_ = reg->GetCounter("fs.cache.misses");
  m_evictions_ = reg->GetCounter("fs.cache.evictions");
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
    obs::WaitAsSpan(shard.cv, lk, [&] { return shard.prefetch_inflight.count(addr) == 0; },
                    obs::Layer::kFs, "fs.cache.prefetch_wait", node_, "addr", addr);
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
    }
  }
  EvictClean();
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
    if (e.first_pin == 0) {
      e.first_pin = pin_lsn;
    }
    e.lru_seq = ++lru_counter_;
    bytes_ += e.data->size();
    dirty_bytes_ += e.data->size();
  }
  EvictClean();

  // Write throttling / write-behind: bring dirty data back under control by
  // writing the globally oldest dirty entries, as one batch.
  for (size_t dirty = dirty_bytes_.load(); dirty > options_.dirty_hiwater_bytes;
       dirty = dirty_bytes_.load()) {
    std::vector<std::vector<uint64_t>> oldest =
        OldestEntries([](const Entry& e) { return e.dirty && !e.flushing; },
                      dirty - options_.dirty_hiwater_bytes / 2);
    if (std::all_of(oldest.begin(), oldest.end(), [](const auto& v) { return v.empty(); })) {
      // Everything dirty is already being flushed; wait for progress. The
      // timeout covers a flush that completed between our scan and the wait.
      obs::SpanScope wait(obs::Layer::kFs, "fs.cache.throttle_wait", node_);
      std::unique_lock<std::mutex> tlk(throttle_mu_);
      throttle_cv_.wait_for(tlk, std::chrono::milliseconds(1));
      continue;
    }
    RETURN_IF_ERROR(WriteBack([&](size_t s, const Shard&) { return oldest[s]; },
                              [](const Entry&) { return true; }, /*log_lsn=*/0));
  }
  return OkStatus();
}

void BlockCache::PutPrefetched(uint64_t addr, Bytes data, LockId lock, uint64_t epoch,
                               uint64_t range_off) {
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lk = LockShard(shard);
  // Epoch check while holding the shard lock: an invalidation bumps the
  // epoch before it sweeps the shards, so either we see the bump here or
  // the sweep (which follows the same shard lock) sees our entry.
  if (LockEpoch(lock) != epoch || shard.entries.count(addr) > 0) {
    return;  // invalidated since the prefetch was issued, or raced with a demand read
  }
  Entry e;
  e.lock = lock;
  e.range_off = range_off;
  e.lru_seq = ++lru_counter_;
  e.data = std::make_shared<const Bytes>(std::move(data));
  bytes_ += e.data->size();
  shard.entries.emplace(addr, std::move(e));
  shard.by_lock[lock].insert(addr);
  lk.unlock();
  EvictClean();
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

bool BlockCache::LogDurableTo(uint64_t lsn) const {
  return lsn == 0 || wal_ == nullptr || wal_->flushed_lsn() >= lsn;
}

// Completion state of one write-back batch; its runs report here from the
// IO pool.
struct BlockCache::Batch {
  std::mutex mu;
  std::condition_variable cv;
  size_t pending = 0;  // runs submitted and not yet completed
  size_t bytes = 0;
  Status status = OkStatus();
  const uint64_t trace_id = obs::CurrentTraceId();  // runs are the flusher's children
};

void BlockCache::ClaimLocked(Shard& shard, size_t index, const std::vector<uint64_t>& addrs,
                             std::unique_lock<std::mutex>& lk, const Wanted& wanted,
                             std::vector<FlushJob>* jobs) {
  auto pick = [&](uint64_t addr) -> Entry* {
    auto it = shard.entries.find(addr);
    return it != shard.entries.end() && it->second.dirty && wanted(it->second) ? &it->second
                                                                                : nullptr;
  };
  // Wait out other flushers writing some of these blocks.
  auto claimable = [&] {
    for (uint64_t addr : addrs) {
      Entry* e = pick(addr);
      if (e != nullptr && e->flushing) {
        return false;
      }
    }
    return true;
  };
  obs::WaitAsSpan(shard.cv, lk, claimable, obs::Layer::kFs, "fs.cache.claim_wait", node_, "blocks",
                  addrs.size());
  for (uint64_t addr : addrs) {
    if (Entry* e = pick(addr)) {
      e->flushing = true;
      jobs->push_back({index, addr, e->data, e->dirty_gen, e->pin_lsn});
    }
  }
}

std::vector<BlockCache::FlushJob> BlockCache::ClaimAll(const Candidates& candidates,
                                                       const Wanted& wanted) {
  std::vector<FlushJob> jobs;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<std::mutex> lk = LockShard(shard);
    std::vector<uint64_t> addrs = candidates(s, shard);
    if (!addrs.empty()) {
      ClaimLocked(shard, s, addrs, lk, wanted, &jobs);
    }
  }
  return jobs;
}

void BlockCache::ReleaseClaims(const std::vector<FlushJob>& jobs) {
  // ClaimAll returns jobs grouped by shard.
  for (size_t i = 0; i < jobs.size();) {
    Shard& shard = shards_[jobs[i].shard];
    {
      std::unique_lock<std::mutex> lk = LockShard(shard);
      for (const size_t s = jobs[i].shard; i < jobs.size() && jobs[i].shard == s; ++i) {
        auto it = shard.entries.find(jobs[i].addr);
        if (it != shard.entries.end()) {
          it->second.flushing = false;
        }
      }
    }
    shard.cv.notify_all();
  }
}

void BlockCache::SubmitRuns(std::vector<FlushJob> jobs, Batch* batch) {
  // Coalesce address-adjacent dirty blocks of a shard into contiguous device
  // writes (sequential file data flushes mostly adjacent 4 KB blocks); each
  // run is one transfer that the Petal client then scatter-gathers across
  // servers.
  constexpr size_t kMaxRunBytes = 256 << 10;
  std::sort(jobs.begin(), jobs.end(), [](const FlushJob& a, const FlushJob& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.addr < b.addr;
  });
  const int64_t fence = lease_expiry_us_ ? lease_expiry_us_() : 0;
  for (size_t first = 0, end = 0; first < jobs.size(); first = end) {
    size_t bytes = jobs[first].data->size();
    for (end = first + 1; end < jobs.size(); ++end) {
      const FlushJob& prev = jobs[end - 1];
      const FlushJob& next = jobs[end];
      if (next.shard != prev.shard || prev.addr + prev.data->size() != next.addr ||
          next.addr + next.data->size() - jobs[first].addr > kMaxRunBytes) {
        break;
      }
      bytes += next.data->size();
    }
    std::vector<FlushJob> run(std::make_move_iterator(jobs.begin() + first),
                              std::make_move_iterator(jobs.begin() + end));
    {
      std::lock_guard<std::mutex> guard(batch->mu);
      ++batch->pending;
      batch->bytes += bytes;
    }
    io_pool_->Submit([this, run = std::move(run), fence, batch] { WriteRun(run, fence, batch); });
  }
}

void BlockCache::WriteRun(const std::vector<FlushJob>& run, int64_t fence, Batch* batch) {
  Status st;
  {
    obs::InheritedTraceScope inherit(batch->trace_id);
    if (run.size() == 1) {
      st = device_->Write(run[0].addr, *run[0].data, fence);
    } else {
      Bytes merged;
      merged.reserve(run.back().addr + run.back().data->size() - run.front().addr);
      for (const FlushJob& j : run) {
        merged.insert(merged.end(), j.data->begin(), j.data->end());
      }
      st = device_->Write(run.front().addr, merged, fence);
    }
  }
  Shard& shard = shards_[run.front().shard];
  {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (const FlushJob& j : run) {
      auto it = shard.entries.find(j.addr);
      if (it == shard.entries.end()) {
        continue;  // discarded while we wrote (lease loss)
      }
      it->second.flushing = false;
      if (st.ok() && it->second.dirty_gen == j.gen) {
        it->second.dirty = false;
        it->second.pin_lsn = 0;
        it->second.first_pin = 0;
        dirty_bytes_ -= it->second.data->size();
      }
    }
    shard.cv.notify_all();
  }
  throttle_cv_.notify_all();
  // Dirty data can push the cache past its capacity (dirty entries are not
  // evictable); reclaim now that some entries are clean again.
  EvictClean();
  std::lock_guard<std::mutex> guard(batch->mu);
  if (!st.ok() && batch->status.ok()) {
    batch->status = st;
  }
  --batch->pending;
  batch->cv.notify_all();
}

Status BlockCache::WriteBack(const Candidates& candidates, const Wanted& wanted,
                             uint64_t log_lsn, size_t* flushed_bytes) {
  Batch batch;
  std::vector<FlushJob> data, meta;
  for (FlushJob& j : ClaimAll(candidates, wanted)) {
    (j.pin_lsn == 0 ? data : meta).push_back(std::move(j));
  }
  // Unlogged data is unordered against the log: it goes out at once.
  SubmitRuns(std::move(data), &batch);

  auto newest_pin = [](const std::vector<FlushJob>& jobs) {
    uint64_t lsn = 0;
    for (const FlushJob& j : jobs) {
      lsn = std::max(lsn, j.pin_lsn);
    }
    return lsn;
  };
  Status st = OkStatus();
  if (const uint64_t need = std::max(log_lsn, newest_pin(meta)); !LogDurableTo(need)) {
    st = wal_->FlushTo(need);
  }
  if (!st.ok()) {
    ReleaseClaims(meta);
    meta.clear();
  }
  SubmitRuns(std::move(meta), &batch);

  std::unique_lock<std::mutex> lk(batch.mu);
  obs::WaitAsSpan(batch.cv, lk, [&] { return batch.pending == 0; }, obs::Layer::kFs,
                  "fs.cache.writeback_wait", node_, "bytes", batch.bytes);
  if (st.ok()) {
    st = batch.status;
  }
  if (flushed_bytes != nullptr) {
    *flushed_bytes = st.ok() ? batch.bytes : 0;
  }
  return st;
}

Status BlockCache::FlushLock(LockId lock, uint64_t start, uint64_t end, size_t* flushed_bytes) {
  // Entries outside the revoked extent stay dirty and cached.
  return WriteBack(
      [&](size_t, const Shard& shard) { return AddrsOfLocks(shard.by_lock, {lock}); },
      [&](const Entry& e) { return e.range_off < end && e.range_off + e.data->size() > start; },
      /*log_lsn=*/0, flushed_bytes);
}

Status BlockCache::FlushLocks(const std::vector<LockId>& locks, uint64_t log_lsn) {
  return WriteBack(
      [&](size_t, const Shard& shard) { return AddrsOfLocks(shard.by_lock, locks); },
      [](const Entry&) { return true; }, log_lsn);
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
    obs::WaitAsSpan(shard.cv, lk, [&] { return shard.prefetch_by_lock.count(lock) == 0; },
                    obs::Layer::kFs, "fs.cache.prefetch_wait", node_, "lock", lock);
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

Status BlockCache::FlushAll(uint64_t log_lsn) {
  return WriteBack([](size_t, const Shard& shard) { return DirtyAddrs(shard.entries); },
                   [](const Entry&) { return true; }, log_lsn);
}

Status BlockCache::FlushPinnedUpTo(uint64_t lsn) {
  return WriteBack([](size_t, const Shard& shard) { return DirtyAddrs(shard.entries); },
                   [&](const Entry& e) { return e.first_pin != 0 && e.first_pin <= lsn; },
                   /*log_lsn=*/0);
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
  }
}

std::vector<std::vector<uint64_t>> BlockCache::OldestEntries(const Wanted& pick, size_t bytes) {
  struct Cand {
    uint64_t lru;
    uint64_t addr;
    size_t size;
    size_t shard;
  };
  std::vector<Cand> cands;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::unique_lock<std::mutex> lk = LockShard(shards_[s]);
    for (const auto& [addr, e] : shards_[s].entries) {
      if (pick(e)) {
        cands.push_back({e.lru_seq, addr, e.data->size(), s});
      }
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) { return a.lru < b.lru; });
  std::vector<std::vector<uint64_t>> per_shard(shards_.size());
  size_t covered = 0;
  for (size_t i = 0; i < cands.size() && covered < bytes; ++i) {
    per_shard[cands[i].shard].push_back(cands[i].addr);
    covered += cands[i].size;
  }
  return per_shard;
}

void BlockCache::EvictClean() {
  const size_t low_water =
      options_.capacity_bytes - options_.capacity_bytes / kEvictSlackDivisor;
  for (size_t bytes = bytes_.load(); bytes > options_.capacity_bytes; bytes = bytes_.load()) {
    std::unique_lock<std::mutex> evicting(evict_mu_, std::try_to_lock);
    if (!evicting.owns_lock()) {
      return;  // the running evictor re-checks the size after its pass
    }
    // An entry read or rewritten after this point gets a newer lru_seq: it
    // is no longer among the oldest and is kept.
    const uint64_t scan_seq = lru_counter_.load();
    std::vector<std::vector<uint64_t>> oldest = OldestEntries(
        [](const Entry& e) { return !e.dirty && !e.flushing; }, bytes - low_water);
    bool any = false;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (oldest[s].empty()) {
        continue;
      }
      any = true;
      Shard& shard = shards_[s];
      std::unique_lock<std::mutex> lk = LockShard(shard);
      for (uint64_t addr : oldest[s]) {
        auto it = shard.entries.find(addr);
        if (it == shard.entries.end() || it->second.dirty || it->second.flushing ||
            it->second.lru_seq > scan_seq) {
          continue;
        }
        bytes_ -= it->second.data->size();
        shard.by_lock[it->second.lock].erase(addr);
        shard.entries.erase(it);
        m_evictions_->Increment();
      }
    }
    if (!any) {
      return;  // everything cached is dirty or being written
    }
  }
}

}  // namespace frangipani
