// Data path (read/write/truncate/fsync), read-ahead, the update-demon work,
// log recovery, and the lock-coherence callbacks of FrangipaniFs.
#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/fs/frangipani_fs.h"
#include "src/obs/recorder.h"

namespace frangipani {

namespace {
// Data-lock extents must be aligned to cache-unit boundaries (4 KB blocks in
// the small region, 64 KB chunks in the large region): the cache holds and
// flushes whole units, so a lock boundary inside a unit would let two
// writers cache the same unit dirty and clobber each other's bytes. With
// every requested extent on this lattice, a unit is always entirely inside
// or entirely outside any granted/revoked range.
LockRange UnitAlignedRange(uint64_t start, uint64_t end) {
  uint64_t s = start < kSmallBytesPerFile
                   ? start / kBlockSize * kBlockSize
                   : kSmallBytesPerFile +
                         (start - kSmallBytesPerFile) / kChunkSize * kChunkSize;
  uint64_t e = end <= kSmallBytesPerFile
                   ? (end + kBlockSize - 1) / kBlockSize * kBlockSize
                   : kSmallBytesPerFile + (end - kSmallBytesPerFile + kChunkSize - 1) /
                                              kChunkSize * kChunkSize;
  return {s, e};
}
}  // namespace

// ---------------------------------------------------------------------------
// Write
// ---------------------------------------------------------------------------

// Stages `data` into the cache under the inode's *data* lock (user data is
// not logged). Cache entries carry range_off = the unit's file offset, which
// is what the ranged FlushLock/InvalidateLock variants select by.
Status FrangipaniFs::StageData(const Inode& node, uint64_t ino, uint64_t offset,
                               const Bytes& data, const std::vector<uint64_t>& fresh_units) {
  LockId dlock = InodeDataLockId(ino);
  uint64_t pos = offset;
  size_t consumed = 0;
  while (consumed < data.size()) {
    BlockRef ref = MapOffset(node, pos, data.size() - consumed);
    FGP_CHECK(ref.addr != 0) << "unallocated block in write path";
    uint64_t unit_off = pos - ref.off_in_unit;  // file offset of the unit base
    Bytes unit;
    bool whole = ref.off_in_unit == 0 && ref.len == ref.unit;
    bool fresh =
        std::find(fresh_units.begin(), fresh_units.end(), ref.addr) != fresh_units.end();
    if (whole) {
      unit.assign(data.begin() + consumed, data.begin() + consumed + ref.len);
    } else if (fresh || ref.addr >= geometry_.large_base) {
      // Fresh small block, or large-region unit: blocks in the large
      // region are private to this file and start zeroed; only pull
      // existing bytes when overwriting previously written data.
      bool prior_data =
          !fresh && pos < ((node.size + ref.unit - 1) / ref.unit) * ref.unit &&
          pos < node.size + ref.unit;
      if (!fresh && prior_data) {
        ASSIGN_OR_RETURN(unit, cache_->Read(ref.addr, ref.unit, dlock, unit_off));
      } else {
        unit.assign(ref.unit, 0);
      }
      std::memcpy(unit.data() + ref.off_in_unit, data.data() + consumed, ref.len);
    } else {
      ASSIGN_OR_RETURN(unit, cache_->Read(ref.addr, ref.unit, dlock, unit_off));
      std::memcpy(unit.data() + ref.off_in_unit, data.data() + consumed, ref.len);
    }
    RETURN_IF_ERROR(cache_->PutDirty(ref.addr, std::move(unit), dlock, 0, unit_off));
    pos += ref.len;
    consumed += ref.len;
  }
  return OkStatus();
}

Status FrangipaniFs::Write(uint64_t ino, uint64_t offset, const Bytes& data) {
  obs::OpTrace trace(&op_metrics_.write, options_.node_id);
  RETURN_IF_ERROR(CheckWritable());
  if (data.empty()) {
    return OkStatus();
  }
  uint64_t end = offset + data.size();
  if (end > geometry_.MaxFileSize()) {
    return OutOfRange("file would exceed the maximum file size (16 small blocks + 1 large "
                      "block, §3)");
  }

  // Fast path (the Lustre-style extent case): a pure overwrite of already
  // allocated bytes needs no metadata update, so it runs under a *shared*
  // inode lock plus an *exclusive* data lock on just the written extent.
  // Writers to disjoint ranges of one file proceed in parallel on different
  // nodes; only the byte ranges actually written move between caches.
  {
    bool needs_meta = false;
    Status st = WithLocks(
        {{InodeLockId(ino), LockMode::kShared},
         {InodeDataLockId(ino), LockMode::kExclusive, UnitAlignedRange(offset, end)}},
        [&]() -> Status {
          ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
          if (node.type != FileType::kRegular) {
            return InvalidArgument("not a regular file");
          }
          if (end > node.size) {
            needs_meta = true;  // size extension: inode must change
            return Aborted("write extends file");
          }
          for (uint64_t pos = offset; pos < end;) {
            BlockRef ref = MapOffset(node, pos, end - pos);
            if (ref.addr == 0) {
              needs_meta = true;  // hole: needs allocation
              return Aborted("write fills a hole");
            }
            pos += ref.len;
          }
          RETURN_IF_ERROR(StageData(node, ino, offset, data));
          {
            // Like atime (§2.1), mtime of an extent write is kept loosely:
            // the fast path holds no exclusive inode lock, so the time goes
            // to this mount's in-memory overlay (see mtime_overlay_).
            std::lock_guard<std::mutex> guard(atime_mu_);
            mtime_overlay_[ino] = NowUs();
          }
          return OkStatus();
        });
    if (st.ok()) {
      stats_.operations.fetch_add(1, std::memory_order_relaxed);
      return OkStatus();
    }
    if (st.code() != StatusCode::kAborted) {
      return st;
    }
    if (!needs_meta) {
      NoteRetry();  // conflict-style abort; fall through to the full path
    }
  }

  // Slow path: allocation and/or size extension — a metadata transaction
  // under the exclusive inode lock, plus the whole-file data lock so the
  // staged bytes are coherent with extent-locked writers elsewhere.
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    return std::vector<PlannedLock>{{kLockBarrier, LockMode::kShared},
                                    {InodeLockId(ino), LockMode::kExclusive},
                                    {InodeDataLockId(ino), LockMode::kExclusive}};
  };
  auto apply = [&](AllocSeg& alloc) -> Status {
    MetaTxn txn(this);
    Bytes* ino_raw = nullptr;
    ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, ino, &ino_raw));
    if (node.type != FileType::kRegular) {
      return InvalidArgument("not a regular file");
    }
    // Allocate any missing blocks in [offset, end).
    std::vector<uint64_t> fresh_units;  // cache-unit addrs needing zero-init
    uint32_t first_small = static_cast<uint32_t>(
        std::min<uint64_t>(offset, kSmallBytesPerFile) / kBlockSize);
    uint32_t last_small = static_cast<uint32_t>(
        (std::min<uint64_t>(end, kSmallBytesPerFile) + kBlockSize - 1) / kBlockSize);
    for (uint32_t i = first_small; i < last_small; ++i) {
      if (node.small[i] != 0) {
        continue;
      }
      ASSIGN_OR_RETURN(node.small[i], AllocFromSegment(txn, alloc, AllocKind::kSmall, false));
      fresh_units.push_back(geometry_.SmallBlockAddr(node.small[i]));
    }
    if (end > kSmallBytesPerFile && node.large == 0) {
      ASSIGN_OR_RETURN(node.large, AllocFromSegment(txn, alloc, AllocKind::kLarge, false));
    }

    RETURN_IF_ERROR(StageData(node, ino, offset, data, fresh_units));

    node.size = std::max(node.size, end);
    node.mtime_us = NowUs();
    WriteInodeIn(txn, ino, ino_raw, node);
    RETURN_IF_ERROR(txn.Commit());
    {
      // The durable mtime is now current; drop any older overlay.
      std::lock_guard<std::mutex> guard(atime_mu_);
      mtime_overlay_.erase(ino);
    }
    return OkStatus();
  };
  return TwoPhaseOp("write", /*allocates=*/true, plan, apply);
}

// ---------------------------------------------------------------------------
// Read + read-ahead
// ---------------------------------------------------------------------------

StatusOr<size_t> FrangipaniFs::Read(uint64_t ino, uint64_t offset, size_t length, Bytes* out) {
  obs::OpTrace trace(&op_metrics_.read, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  out->clear();
  if (length == 0) {
    return 0;
  }
  // The inode lock (shared) covers the metadata; the data lock covers only
  // the read extent, so readers do not stall writers of other extents.
  Status st = WithLocks(
      {{InodeLockId(ino), LockMode::kShared},
       {InodeDataLockId(ino), LockMode::kShared, UnitAlignedRange(offset, offset + length)}},
      [&]() -> Status {
    ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
    if (node.type != FileType::kRegular) {
      return InvalidArgument("not a regular file");
    }
    if (offset >= node.size) {
      return OkStatus();
    }
    uint64_t end = std::min<uint64_t>(node.size, offset + length);
    LockId dlock = InodeDataLockId(ino);
    StartReadFetches(ino, node, offset, end);
    uint64_t pos = offset;
    while (pos < end) {
      BlockRef ref = MapOffset(node, pos, end - pos);
      if (ref.addr == 0) {
        out->insert(out->end(), ref.len, 0);  // hole
      } else {
        ASSIGN_OR_RETURN(Bytes unit,
                         cache_->Read(ref.addr, ref.unit, dlock, pos - ref.off_in_unit));
        out->insert(out->end(), unit.begin() + ref.off_in_unit,
                    unit.begin() + ref.off_in_unit + ref.len);
      }
      pos += ref.len;
    }
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  {
    // §2.1: last-accessed time is maintained only approximately. It is kept
    // in this mount's memory, never written (only create sets the inode's
    // atime_us), and is lost when the mount goes.
    std::lock_guard<std::mutex> guard(atime_mu_);
    atime_overlay_[ino] = NowUs();
  }
  stats_.operations.fetch_add(1, std::memory_order_relaxed);
  return out->size();
}

void FrangipaniFs::StartReadFetches(uint64_t ino, const Inode& inode, uint64_t offset,
                                    uint64_t end) {
  if (prefetch_pool_ == nullptr) {
    return;
  }
  // A read continues a sequential scan if it reaches where the file's last
  // read ended from at or before it, or, for a file's first read, if it ends
  // in the first 256 KB. A forward skip is not sequential: read-ahead after
  // it would mostly fetch units the reader skips next.
  bool sequential = false;
  if (readahead_on_.load()) {
    std::lock_guard<std::mutex> guard(ra_mu_);
    auto it = ra_last_end_.find(ino);
    sequential = it == ra_last_end_.end() ? end <= 256 * 1024
                                          : offset <= it->second && it->second <= end;
    ra_last_end_[ino] = end;
  }
  LockId lock = InodeDataLockId(ino);
  // The epoch is sampled before the coverage checks below. The clerk reports
  // a revoked extent as not covered from the moment the revoke begins, so a
  // revoke that the check misses invalidates after this sample: it bumps the
  // epoch and the prefetch's data is dropped instead of cached.
  const uint64_t epoch = cache_->LockEpoch(lock);
  struct Fetch {
    uint64_t addr;
    uint32_t unit;
    uint64_t unit_off;  // file offset of the unit base
  };
  std::vector<Fetch> fetches;
  for (uint64_t pos = offset; pos < end;) {
    BlockRef ref = MapOffset(inode, pos, end - pos);
    if (ref.addr != 0) {
      fetches.push_back({ref.addr, ref.unit, pos - ref.off_in_unit});
    }
    pos += ref.len;
  }
  const size_t own = fetches.size();
  // The window starts at the first unit boundary at or past `end`: a unit
  // `end` falls inside is the reader's own.
  uint64_t pos = UnitAlignedRange(end, end).end;
  for (uint32_t i = 0; sequential && i < kReadaheadUnits && pos < inode.size; ++i) {
    BlockRef ref = MapOffset(inode, pos, inode.size - pos);
    const uint64_t unit_off = pos;  // a unit boundary
    pos += ref.unit;
    if (ref.addr == 0) {
      continue;
    }
    // Only prefetch units the clerk's cached extents already cover: issuing
    // a lock request from read-ahead would stall writers of that extent for
    // speculative work.
    if (!locks_->CachedCovers(lock, unit_off, unit_off + ref.unit, LockMode::kShared)) {
      break;
    }
    fetches.push_back({ref.addr, ref.unit, unit_off});
  }
  size_t i = 0;
  if (own == 1) {
    if (fetches.size() == 1) {
      return;  // no read-ahead: the copy loop reads the lone own unit
    }
    // A lone own unit that misses is read here, and read-ahead is queued
    // once it has arrived. Queued together, the units' replies reach the
    // client's link in no set order, and the own unit's can wait behind
    // the whole window's.
    if (cache_->BeginPrefetch(fetches[0].addr, lock)) {
      FetchUnit(fetches[0].addr, fetches[0].unit, fetches[0].unit_off, lock, epoch);
    }
    i = 1;
  }
  for (; i < fetches.size(); ++i) {
    const Fetch& f = fetches[i];
    if (StartPrefetch(f.addr, f.unit, f.unit_off, lock, epoch) && i >= own) {
      stats_.prefetches.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool FrangipaniFs::StartPrefetch(uint64_t unit_addr, uint32_t unit, uint64_t unit_off,
                                 LockId lock, uint64_t epoch, bool plan_fetch) {
  if (!cache_->BeginPrefetch(unit_addr, lock)) {
    return false;  // already cached or being prefetched
  }
  // Prefetches inherit the reading op's trace id so the recorder shows
  // them as children of the op that started them.
  uint64_t trace_id = obs::CurrentTraceId();
  auto fetch = [this, unit_addr, unit, unit_off, lock, epoch, plan_fetch, trace_id] {
    obs::InheritedTraceScope inherit(trace_id);
    FetchUnit(unit_addr, unit, unit_off, lock, epoch, plan_fetch);
  };
  if (plan_fetch) {
    prefetch_pool_->SubmitFront(std::move(fetch));
  } else {
    prefetch_pool_->Submit(std::move(fetch));
  }
  return true;
}

void FrangipaniFs::FetchUnit(uint64_t unit_addr, uint32_t unit, uint64_t unit_off, LockId lock,
                             uint64_t epoch, bool plan_fetch) {
  Bytes data;
  if (!device_->Read(unit_addr, unit, &data).ok()) {
    cache_->EndPrefetch(unit_addr, lock);
    return;
  }
  if (cache_->LockEpoch(lock) != epoch) {
    // The lock was revoked while we prefetched: wasted work (Figure 8).
    cache_->EndPrefetch(unit_addr, lock);
    if (plan_fetch) {
      m_plan_fetch_wasted_->Increment();
    } else {
      stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  cache_->PutPrefetched(unit_addr, std::move(data), lock, epoch, unit_off);
  cache_->EndPrefetch(unit_addr, lock);
}

// ---------------------------------------------------------------------------
// Truncate
// ---------------------------------------------------------------------------

Status FrangipaniFs::Truncate(uint64_t ino, uint64_t new_size) {
  obs::OpTrace trace(&op_metrics_.truncate, options_.node_id);
  uint64_t expected_version = 0;
  bool shrinks = false;
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    if (new_size > geometry_.MaxFileSize()) {
      return OutOfRange("beyond maximum file size");
    }
    // Find which segments hold the blocks to free.
    std::vector<uint32_t> segs;
    shrinks = false;
    RETURN_IF_ERROR(WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
      if (node.type != FileType::kRegular) {
        return InvalidArgument("not a regular file");
      }
      expected_version = node.version;
      if (new_size >= node.size) {
        return OkStatus();
      }
      shrinks = true;
      uint32_t keep_smalls =
          static_cast<uint32_t>((std::min<uint64_t>(new_size, kSmallBytesPerFile) +
                                 kBlockSize - 1) /
                                kBlockSize);
      for (uint32_t i = keep_smalls; i < kSmallBlocksPerFile; ++i) {
        if (node.small[i] != 0) {
          segs.push_back(SegmentOfSmall(node.small[i]));
        }
      }
      if (node.large != 0 && new_size <= kSmallBytesPerFile) {
        segs.push_back(SegmentOfLarge(node.large));
      }
      std::sort(segs.begin(), segs.end());
      segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
      return OkStatus();
    }));
    std::vector<PlannedLock> locks = {{kLockBarrier, LockMode::kShared},
                                      {InodeLockId(ino), LockMode::kExclusive},
                                      {InodeDataLockId(ino), LockMode::kExclusive}};
    for (uint32_t seg : segs) {
      locks.push_back({SegmentLockId(seg), LockMode::kExclusive});
    }
    return locks;
  };
  auto apply = [&](AllocSeg&) -> Status {
    MetaTxn txn(this);
    Bytes* ino_raw = nullptr;
    ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, ino, &ino_raw));
    if (node.version != expected_version) {
      return Aborted("inode changed since phase one");
    }
    const uint64_t large = node.large;
    if (new_size < node.size) {
      uint32_t keep_smalls =
          static_cast<uint32_t>((std::min<uint64_t>(new_size, kSmallBytesPerFile) +
                                 kBlockSize - 1) /
                                kBlockSize);
      for (uint32_t i = keep_smalls; i < kSmallBlocksPerFile; ++i) {
        if (node.small[i] != 0) {
          FreeInSegment(txn, SegmentOfSmall(node.small[i]), SmallBit(node.small[i]));
          node.small[i] = 0;
        }
      }
      if (node.large != 0 && new_size <= kSmallBytesPerFile) {
        RETURN_IF_ERROR(FreeLargeIn(txn, node.large, node.size));
        node.large = 0;
      }
    }
    uint64_t old_size = node.size;
    node.size = new_size;
    node.mtime_us = NowUs();
    WriteInodeIn(txn, ino, ino_raw, node);
    RETURN_IF_ERROR(txn.Commit());
    if (shrinks) {
      // Freed blocks may be reallocated under other locks; drop our copies
      // (both the metadata entries and the file-content entries).
      RETURN_IF_ERROR(cache_->FlushLock(InodeLockId(ino)));
      cache_->InvalidateLock(InodeLockId(ino));
      RETURN_IF_ERROR(cache_->FlushLock(InodeDataLockId(ino)));
      cache_->InvalidateLock(InodeDataLockId(ino));
      // Zero the stale tail of the kept partial block so that a later
      // size extension reads zeros, not resurrected old data.
      if (new_size > 0) {
        BlockRef ref = MapOffset(node, new_size, 1);
        if (ref.addr != 0 && ref.off_in_unit != 0) {
          uint32_t zero_to = static_cast<uint32_t>(std::min<uint64_t>(
              ref.unit, old_size - (new_size - ref.off_in_unit)));
          LockId dlock = InodeDataLockId(ino);
          uint64_t unit_off = new_size - ref.off_in_unit;
          ASSIGN_OR_RETURN(Bytes unit, cache_->Read(ref.addr, ref.unit, dlock, unit_off));
          std::fill(unit.begin() + ref.off_in_unit, unit.begin() + zero_to, 0);
          RETURN_IF_ERROR(cache_->PutDirty(ref.addr, std::move(unit), dlock, 0, unit_off));
        }
      }
      // Return the large-region chunks past the new end (reads of the kept
      // block then yield zeros); a freed block goes to the worker.
      if (node.large == 0) {
        QueueDecommit(large, old_size);
      } else {
        RETURN_IF_ERROR(DecommitLargeTail(txn.lsn(), large, old_size, new_size));
      }
    }
    return OkStatus();
  };
  return TwoPhaseOp("truncate", /*allocates=*/false, plan, apply);
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

Status FrangipaniFs::Fsync(uint64_t ino) {
  obs::OpTrace trace(&op_metrics_.fsync, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  RETURN_IF_ERROR(CheckWriteLease(m_stale_lease_fsync_));
  // One batch: the whole log (making this file's metadata updates
  // recoverable), with the file's data written alongside it and its inode
  // and directory blocks after it.
  RETURN_IF_ERROR(
      cache_->FlushLocks({InodeLockId(ino), InodeDataLockId(ino)}, wal_->next_lsn() - 1));
  stats_.operations.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status FrangipaniFs::SyncAll() {
  if (!mounted_ || poisoned_) {
    return OkStatus();
  }
  decommits_->Drain();
  return cache_->FlushAll(wal_->next_lsn() - 1);
}

Status FrangipaniFs::DropCaches() {
  RETURN_IF_ERROR(SyncAll());
  cache_->DropClean();
  {
    std::lock_guard<std::mutex> guard(ra_mu_);
    ra_last_end_.clear();
  }
  return OkStatus();
}

Status FrangipaniFs::FlushLog() {
  if (!mounted_ || poisoned_) {
    return OkStatus();
  }
  return wal_->FlushAll();
}

void FrangipaniFs::ReportSyncError(const char* who, const Status& st) {
  if (!st.ok()) {
    m_sync_errors_->Increment();
    FLOG(WARN) << "fs: " << who << " failed to flush: " << st;
  }
}

// ---------------------------------------------------------------------------
// Recovery and coherence callbacks
// ---------------------------------------------------------------------------

Status FrangipaniFs::RecoverSlot(uint32_t dead_slot) {
  if (!mounted_) {
    return FailedPrecondition("not mounted");
  }
  FLOG(INFO) << "fs: replaying log of dead slot " << dead_slot;
  ASSIGN_OR_RETURN(uint64_t applied, ReplayLog(device_, geometry_, dead_slot, FenceUs()));
  RETURN_IF_ERROR(EraseLog(device_, geometry_, dead_slot, FenceUs()));
  FLOG(INFO) << "fs: recovery of slot " << dead_slot << " applied " << applied << " updates";
  return OkStatus();
}

void FrangipaniFs::OnLockRevoked(LockId lock, LockMode new_mode, LockRange range) {
  if (!mounted_) {
    return;
  }
  if (lock == kLockBarrier) {
    // Backup barrier (§8): clean everything, then let the barrier go (a
    // failed flush does not hold the barrier).
    ReportSyncError("backup barrier", SyncAll());
    return;
  }
  if (IsSegmentLock(lock)) {
    // A decommit of this segment's blocks must land before another server
    // can finish the same marker and reuse the block.
    decommits_->OnSegmentRevoked(SegmentOfLock(lock));
  }
  // §5: write dirty data covered by the lock before it changes hands;
  // invalidate on full release, keep cached data on downgrade. A partial
  // (byte-range) revoke touches only the blocks inside the revoked extent —
  // the rest of the file stays cached and dirty.
  obs::SpanScope span(obs::Layer::kFs,
                      range.full() ? "fs.revoke_flush" : "fs.range_revoke_flush",
                      options_.node_id, "lock", lock, "new_mode",
                      static_cast<uint64_t>(new_mode));
  size_t flushed = 0;
  Status st = cache_->FlushLock(lock, range.start, range.end, &flushed);
  if (!st.ok()) {
    FLOG(WARN) << "fs: flush on revoke failed for lock " << lock << ": " << st;
  }
  span.arg1("flushed_bytes", flushed);
  if (flushed > 0 && m_revoke_flush_bytes_ != nullptr) {
    m_revoke_flush_bytes_->Increment(flushed);
  }
  if (new_mode == LockMode::kNone) {
    cache_->InvalidateLock(lock, range.start, range.end);
    if (IsInodeLock(lock)) {
      std::lock_guard<std::mutex> guard(ra_mu_);
      ra_last_end_.erase(InodeOfLock(lock));
    } else if (IsInodeDataLock(lock)) {
      std::lock_guard<std::mutex> guard(ra_mu_);
      ra_last_end_.erase(InodeOfDataLock(lock));
    }
  }
}

void FrangipaniFs::OnLeaseLost() {
  // §6: discard all locks and cached data; make every subsequent request
  // fail until the file system is unmounted.
  poisoned_.store(true);
  if (cache_) {
    cache_->DiscardAll();
  }
  FLOG(WARN) << "fs: lease lost; mount poisoned";
}

}  // namespace frangipani
