#include "src/fs/frangipani_fs.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

namespace {
constexpr int kMaxOpRetries = 64;
constexpr int kMaxSymlinkDepth = 10;
}  // namespace

StatusOr<std::vector<std::string>> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t j = i;
    while (j < path.size() && path[j] != '/') {
      ++j;
    }
    if (j > i) {
      std::string comp = path.substr(i, j - i);
      if (comp == "." || comp == "..") {
        return InvalidArgument("'.' and '..' are not supported in paths");
      }
      if (comp.size() > kDirNameMax) {
        return InvalidArgument("name too long: " + comp);
      }
      parts.push_back(std::move(comp));
    }
    i = j;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// MetaTxn
// ---------------------------------------------------------------------------

StatusOr<Bytes*> FrangipaniFs::MetaTxn::GetBlock(uint64_t addr, BlockKind kind, LockId lock) {
  auto it = blocks_.find(addr);
  if (it != blocks_.end()) {
    return &it->second.data;
  }
  ASSIGN_OR_RETURN(Bytes data, fs_->cache_->Read(addr, BlockKindSize(kind), lock));
  Block b;
  b.kind = kind;
  b.lock = lock;
  b.base = data;
  b.data = std::move(data);
  auto [pos, inserted] = blocks_.emplace(addr, std::move(b));
  return &pos->second.data;
}

Bytes* FrangipaniFs::MetaTxn::PutBlock(uint64_t addr, BlockKind kind, LockId lock, Bytes data) {
  Block b;
  b.kind = kind;
  b.lock = lock;
  b.data = std::move(data);
  auto [pos, inserted] = blocks_.insert_or_assign(addr, std::move(b));
  return &pos->second.data;
}

Status FrangipaniFs::MetaTxn::Commit() {
  // A diff replays correctly because the image it is taken against is what
  // the disk and the log rebuild for the block's current version: every
  // metadata change commits here, the block stays cached while its lock is
  // held and is written back (or our log replayed) before another server
  // changes it, and our log reuses a record's space only once the disk holds
  // the blocks it updated (LogWriter). The diff is taken before the version
  // bump; replay sets the version from the record.
  LogRecord record;
  std::vector<std::pair<uint64_t, Block*>> logged;
  for (auto& [addr, b] : blocks_) {
    LogBlockUpdate update;
    if (b.base.empty()) {
      update.ranges.push_back({0, b.data});
    } else {
      update.ranges = DiffRanges(b.base, b.data);
      if (update.ranges.empty()) {
        continue;  // read but not modified
      }
    }
    update.addr = addr;
    update.kind = b.kind;
    update.version = BlockVersionOf(b.kind, b.data) + 1;
    SetBlockVersion(b.kind, b.data, update.version);
    record.updates.push_back(std::move(update));
    logged.emplace_back(addr, &b);
  }
  if (record.updates.empty()) {
    return OkStatus();
  }
  RETURN_IF_ERROR(fs_->CheckWriteLease(fs_->m_stale_lease_commit_));
  ASSIGN_OR_RETURN(lsn_, fs_->wal_->Append(std::move(record), [&](uint64_t lsn) -> Status {
    for (auto& [addr, b] : logged) {
      RETURN_IF_ERROR(fs_->cache_->PutDirty(addr, b->data, b->lock, lsn));
    }
    return OkStatus();
  }));
  fs_->stats_.log_records.fetch_add(1, std::memory_order_relaxed);
  if (fs_->options_.sync_log) {
    RETURN_IF_ERROR(fs_->wal_->FlushTo(lsn_));
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Construction / mkfs / mount
// ---------------------------------------------------------------------------

FrangipaniFs::OpMetricsTable::OpMetricsTable(obs::MetricsRegistry* r)
    : create(obs::OpMetrics::For(r, "create")),
      mkdir(obs::OpMetrics::For(r, "mkdir")),
      symlink(obs::OpMetrics::For(r, "symlink")),
      link(obs::OpMetrics::For(r, "link")),
      unlink(obs::OpMetrics::For(r, "unlink")),
      rmdir(obs::OpMetrics::For(r, "rmdir")),
      rename(obs::OpMetrics::For(r, "rename")),
      lookup(obs::OpMetrics::For(r, "lookup")),
      stat(obs::OpMetrics::For(r, "stat")),
      readlink(obs::OpMetrics::For(r, "readlink")),
      readdir(obs::OpMetrics::For(r, "readdir")),
      read(obs::OpMetrics::For(r, "read")),
      write(obs::OpMetrics::For(r, "write")),
      truncate(obs::OpMetrics::For(r, "truncate")),
      fsync(obs::OpMetrics::For(r, "fsync")) {}

FrangipaniFs::FrangipaniFs(BlockDevice* device, LockProvider* locks, Clock* clock,
                           FsOptions options)
    : device_(device),
      locks_(locks),
      clock_(clock),
      options_(options),
      op_metrics_(obs::MetricsRegistry::Default()) {
  m_revoke_flush_bytes_ =
      obs::MetricsRegistry::Default()->GetCounter("lock.revoke_flush_bytes");
  m_sync_errors_ = obs::MetricsRegistry::Default()->GetCounter("fs.sync.errors");
  m_decommit_deferred_ = obs::MetricsRegistry::Default()->GetCounter("fs.decommit.deferred");
  m_decommit_adopted_ = obs::MetricsRegistry::Default()->GetCounter("fs.decommit.adopted");
  m_name_hint_stale_ = obs::MetricsRegistry::Default()->GetCounter("fs.name_hint.stale");
  m_plan_fetches_ = obs::MetricsRegistry::Default()->GetCounter("fs.plan_fetches");
  m_plan_fetch_wasted_ = obs::MetricsRegistry::Default()->GetCounter("fs.plan_fetch_wasted");
  m_stale_lease_commit_ = obs::MetricsRegistry::Default()->GetCounter("fs.stale_lease.commit");
  m_stale_lease_fsync_ = obs::MetricsRegistry::Default()->GetCounter("fs.stale_lease.fsync");
  m_retries_ = obs::MetricsRegistry::Default()->GetCounter("fs.retries");
}

FrangipaniFs::~FrangipaniFs() {
  if (mounted_) {
    (void)Unmount();
  }
}

Status FrangipaniFs::Mkfs(BlockDevice* device, const Geometry& geometry) {
  Encoder params;
  params.PutU32(kParamMagic);
  geometry.Encode(params);
  Bytes param_block = params.Take();
  param_block.resize(kBlockSize, 0);
  RETURN_IF_ERROR(device->Write(geometry.param_base, param_block, 0));

  // Root directory inode (ino 1). Inode 0 is reserved.
  Inode root;
  root.type = FileType::kDirectory;
  root.nlink = 1;
  root.version = 1;
  RETURN_IF_ERROR(device->Write(geometry.InodeAddr(kRootInode), root.Encode(), 0));

  Bytes seg0 = InitSegmentBlock();
  SegBitSet(seg0, InodeBit(0), true);
  SegBitSet(seg0, InodeBit(kRootInode), true);
  SetBlockVersion(BlockKind::kMeta4k, seg0, 1);
  RETURN_IF_ERROR(device->Write(geometry.SegmentAddr(0), seg0, 0));
  return OkStatus();
}

Status FrangipaniFs::Mount() {
  if (mounted_) {
    return FailedPrecondition("already mounted");
  }
  Bytes param_block;
  RETURN_IF_ERROR(device_->Read(0, kBlockSize, &param_block));
  Decoder dec(param_block);
  if (dec.GetU32() != kParamMagic) {
    return DataLoss("no Frangipani file system on this virtual disk (run mkfs)");
  }
  geometry_ = Geometry::Decode(dec);
  if (!dec.ok()) {
    return DataLoss("corrupt parameter block");
  }

  auto fence = [this]() { return FenceUs(); };
  wal_ = std::make_unique<LogWriter>(
      device_, geometry_, locks_->slot(),
      [this](uint64_t lsn) { return cache_->FlushPinnedUpTo(lsn); }, fence,
      options_.node_id);
  cache_ = std::make_unique<BlockCache>(device_, wal_.get(), BlockCacheOptions{}, fence,
                                        options_.node_id);
  prefetch_pool_ = std::make_unique<ThreadPool>(kReadaheadUnits);
  decommits_ = std::make_unique<DecommitWorker>(
      [this](uint32_t seg, bool own) { FinishDecommits(seg, own); }, options_.node_id);

  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    alloc_seg_ = (locks_->slot() * 2654435761u) % geometry_.num_segments;
  }
  mounted_ = true;
  return OkStatus();
}

Status FrangipaniFs::Unmount() {
  if (!mounted_) {
    return OkStatus();
  }
  Status st = OkStatus();
  decommits_->Hold(false);
  if (!poisoned_ && !options_.read_only) {
    st = SyncAll();
  }
  // Stopped, not destroyed: a revoke callback racing the unmount may
  // still call into it.
  decommits_->Stop();
  prefetch_pool_.reset();
  mounted_ = false;
  return st;
}

Status FrangipaniFs::CheckUsable() const {
  if (!mounted_) {
    return FailedPrecondition("not mounted");
  }
  if (poisoned_.load() || locks_->poisoned()) {
    // §6: after a lost lease all requests fail until unmount.
    return StaleLease("mount poisoned by lost lease; unmount required");
  }
  return OkStatus();
}

Status FrangipaniFs::CheckWritable() const {
  RETURN_IF_ERROR(CheckUsable());
  if (options_.read_only) {
    return PermissionDenied("read-only mount");
  }
  return OkStatus();
}

Status FrangipaniFs::CheckWriteLease(obs::Counter* refusals) const {
  Duration lease = locks_->LeaseDuration();
  if (lease.count() == 0) {
    return OkStatus();  // local locks: no lease to guard
  }
  // The paper uses a fixed 15 s margin against a 30 s lease; scale the
  // margin down for installations with shorter leases.
  Duration margin = std::min(kDefaultLeaseMargin, lease / 3);
  if (!locks_->LeaseValidFor(margin)) {
    refusals->Increment();
    return StaleLease("lease expires within the write margin (§6)");
  }
  return OkStatus();
}

int64_t FrangipaniFs::FenceUs() const { return locks_->LeaseExpiryUs(); }

int64_t FrangipaniFs::NowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             clock_->Now().time_since_epoch())
      .count();
}

void FrangipaniFs::NoteRetry() {
  stats_.retries.fetch_add(1, std::memory_order_relaxed);
  m_retries_->Increment();
}

FsStats FrangipaniFs::Stats() const {
  FsStats s;
  s.operations = stats_.operations.load(std::memory_order_relaxed);
  s.retries = stats_.retries.load(std::memory_order_relaxed);
  s.log_records = stats_.log_records.load(std::memory_order_relaxed);
  s.prefetches = stats_.prefetches.load(std::memory_order_relaxed);
  s.prefetch_wasted = stats_.prefetch_wasted.load(std::memory_order_relaxed);
  if (cache_) {
    s.cache_hits = cache_->hits();
    s.cache_misses = cache_->misses();
  }
  return s;
}

void FrangipaniFs::SetReadahead(bool enabled) { readahead_on_.store(enabled); }

void FrangipaniFs::HoldDecommits(bool hold) { decommits_->Hold(hold); }

// ---------------------------------------------------------------------------
// Lock plans
// ---------------------------------------------------------------------------

Status FrangipaniFs::WithLocks(std::vector<PlannedLock> locks,
                               const std::function<Status()>& fn) {
  // §5: sort by lock id (the paper sorts by inode address) and acquire in
  // order. Duplicates merge into one acquisition: the stronger mode and the
  // union hull of the byte ranges, so each LockId is requested exactly once
  // (a second ranged request against the same lock could deadlock with a
  // concurrent holder between the two ranges).
  struct Want {
    LockMode mode = LockMode::kNone;
    LockRange range{};
    bool seen = false;
  };
  std::map<LockId, Want> plan;
  for (const PlannedLock& l : locks) {
    Want& w = plan[l.id];
    if (!w.seen) {
      w.mode = l.mode;
      w.range = l.range;
      w.seen = true;
    } else {
      w.mode = std::max(w.mode, l.mode);
      w.range.start = std::min(w.range.start, l.range.start);
      w.range.end = std::max(w.range.end, l.range.end);
    }
  }
  std::vector<std::pair<LockId, LockRange>> held;
  held.reserve(plan.size());
  Status st = OkStatus();
  for (const auto& [id, want] : plan) {
    st = locks_->Acquire(id, want.mode, want.range);
    if (!st.ok()) {
      break;
    }
    held.emplace_back(id, want.range);
  }
  if (st.ok()) {
    st = fn();
  }
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    locks_->Release(it->first, it->second);
  }
  return st;
}

Status FrangipaniFs::TwoPhaseOp(const char* op, bool allocates, const PlanFn& plan,
                                const ApplyFn& apply) {
  RETURN_IF_ERROR(CheckWritable());
  for (int attempt = 0; attempt < kMaxOpRetries; ++attempt) {
    StatusOr<std::vector<PlannedLock>> locks = plan();
    Status st = locks.status();
    AllocSeg alloc;
    if (st.ok()) {
      if (locks->empty()) {
        return OkStatus();
      }
      if (allocates) {
        {
          std::lock_guard<std::mutex> guard(alloc_mu_);
          alloc.seg = alloc_seg_;
        }
        locks->push_back({SegmentLockId(alloc.seg), LockMode::kExclusive});
      }
      st = WithLocks(*locks, [&]() -> Status {
        RETURN_IF_ERROR(FetchPlanBlocks(*locks));
        return apply(alloc);
      });
      if (st.code() == StatusCode::kAborted) {
        obs::MetricsRegistry::Default()->GetCounter(std::string("fs.abort.") + op)->Increment();
      }
    }
    if (st.code() == StatusCode::kAborted) {
      if (alloc.full) {
        AdvanceAllocSeg(alloc.seg);
      }
      NoteRetry();
      continue;
    }
    RETURN_IF_ERROR(st);
    stats_.operations.fetch_add(1, std::memory_order_relaxed);
    return OkStatus();
  }
  return Aborted(std::string(op) + ": too many conflicts");
}

void FrangipaniFs::AdvanceAllocSeg(uint32_t full_seg) {
  std::lock_guard<std::mutex> guard(alloc_mu_);
  if (alloc_seg_ == full_seg) {
    alloc_seg_ = (alloc_seg_ + 1) % geometry_.num_segments;
  }
}

Status FrangipaniFs::FetchPlanBlocks(const std::vector<PlannedLock>& locks) {
  // The first cold block stays on this thread: it is what apply reads
  // first, and for a create whose only cold block is the parent inode, a
  // hop through the pool would sit on the directory lock's handoff chain.
  struct Block {
    uint64_t addr = 0;
    uint32_t size = 0;
    LockId lock = 0;
  };
  std::optional<Block> first;
  for (const PlannedLock& l : locks) {
    Block b{0, 0, l.id};
    if (IsInodeLock(l.id)) {
      b.addr = geometry_.InodeAddr(InodeOfLock(l.id));
      b.size = kInodeSize;
    } else if (IsSegmentLock(l.id)) {
      b.addr = geometry_.SegmentAddr(SegmentOfLock(l.id));
      b.size = kBlockSize;
    } else {
      continue;
    }
    if (cache_->Cached(b.addr) || (first.has_value() && first->addr == b.addr)) {
      continue;
    }
    if (!first.has_value()) {
      first = b;
      continue;
    }
    // Sampled with the lock held: an invalidation after this (a revoke once
    // the attempt, aborted or done, lets the lock go) drops a fetch still
    // in flight instead of caching it.
    if (prefetch_pool_ != nullptr &&
        StartPrefetch(b.addr, b.size, 0, b.lock, cache_->LockEpoch(b.lock), /*plan_fetch=*/true)) {
      m_plan_fetches_->Increment();
    }
  }
  if (first.has_value()) {
    RETURN_IF_ERROR(cache_->Read(first->addr, first->size, first->lock).status());
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Inodes and directories (caller holds the covering locks)
// ---------------------------------------------------------------------------

StatusOr<Inode> FrangipaniFs::ReadInode(uint64_t ino) {
  ASSIGN_OR_RETURN(Bytes raw,
                   cache_->Read(geometry_.InodeAddr(ino), kInodeSize, InodeLockId(ino)));
  return Inode::Decode(raw);
}

StatusOr<Inode> FrangipaniFs::ReadInodeIn(MetaTxn& txn, uint64_t ino, Bytes** raw) {
  ASSIGN_OR_RETURN(Bytes * block,
                   txn.GetBlock(geometry_.InodeAddr(ino), BlockKind::kInode, InodeLockId(ino)));
  *raw = block;
  return Inode::Decode(*block);
}

void FrangipaniFs::WriteInodeIn(MetaTxn& txn, uint64_t ino, Bytes* raw, const Inode& inode) {
  Bytes encoded = inode.Encode();
  // Preserve the version field: Commit bumps it from the block image.
  uint64_t version = BlockVersionOf(BlockKind::kInode, *raw);
  *raw = std::move(encoded);
  SetBlockVersion(BlockKind::kInode, *raw, version);
}

FrangipaniFs::BlockRef FrangipaniFs::MapOffset(const Inode& inode, uint64_t off,
                                               uint64_t len) const {
  BlockRef ref;
  if (off < kSmallBytesPerFile) {
    uint32_t idx = static_cast<uint32_t>(off / kBlockSize);
    ref.unit = kBlockSize;
    ref.off_in_unit = static_cast<uint32_t>(off % kBlockSize);
    ref.len = static_cast<uint32_t>(
        std::min<uint64_t>(len, kBlockSize - ref.off_in_unit));
    // Do not cross into the large region within one ref.
    ref.len = static_cast<uint32_t>(std::min<uint64_t>(ref.len, kSmallBytesPerFile - off));
    ref.addr = inode.small[idx] == 0 ? 0 : geometry_.SmallBlockAddr(inode.small[idx]);
    return ref;
  }
  uint64_t large_off = off - kSmallBytesPerFile;
  // Directories use 4 KB units everywhere (they carry per-block versions);
  // file data in the large region uses 64 KB cache units.
  uint32_t unit = inode.type == FileType::kDirectory ? kBlockSize
                                                     : static_cast<uint32_t>(kChunkSize);
  ref.unit = unit;
  uint64_t unit_base = large_off / unit * unit;
  ref.off_in_unit = static_cast<uint32_t>(large_off - unit_base);
  ref.len = static_cast<uint32_t>(std::min<uint64_t>(len, unit - ref.off_in_unit));
  ref.addr =
      inode.large == 0 ? 0 : geometry_.LargeBlockAddr(inode.large) + unit_base;
  return ref;
}

StatusOr<std::optional<DirHit>> FrangipaniFs::DirFind(const Inode& dir, uint64_t dir_ino,
                                                      const std::string& name,
                                                      uint64_t* block_addr) {
  LockId lock = InodeLockId(dir_ino);
  for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
    BlockRef ref = MapOffset(dir, off, kBlockSize);
    if (ref.addr == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(Bytes block, cache_->Read(ref.addr, kBlockSize, lock));
    std::optional<DirHit> hit = DirBlockFind(block, name);
    if (hit.has_value()) {
      if (block_addr != nullptr) {
        *block_addr = ref.addr;
      }
      return hit;
    }
  }
  return std::optional<DirHit>{};
}

Status FrangipaniFs::DirInsert(MetaTxn& txn, AllocSeg& alloc, uint64_t dir_ino, Inode& dir,
                               const std::string& name, uint64_t ino, FileType type) {
  LockId lock = InodeLockId(dir_ino);
  // Find a block with a free slot.
  for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
    BlockRef ref = MapOffset(dir, off, kBlockSize);
    if (ref.addr == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(Bytes * block, txn.GetBlock(ref.addr, BlockKind::kMeta4k, lock));
    std::optional<uint32_t> slot = DirBlockFreeSlot(*block);
    if (slot.has_value()) {
      DirBlockSetEntry(*block, *slot, name, ino, type);
      return OkStatus();
    }
  }
  // All blocks full: grow the directory by one block.
  uint64_t new_off = dir.size;
  if (new_off + kBlockSize > geometry_.MaxFileSize()) {
    return ResourceExhausted("directory too large");
  }
  uint64_t block_addr = 0;
  if (new_off < kSmallBytesPerFile) {
    ASSIGN_OR_RETURN(uint64_t b, AllocFromSegment(txn, alloc, AllocKind::kSmall, true));
    dir.small[new_off / kBlockSize] = b;
    block_addr = geometry_.SmallBlockAddr(b);
  } else {
    if (dir.large == 0) {
      ASSIGN_OR_RETURN(uint64_t l, AllocFromSegment(txn, alloc, AllocKind::kLarge, true));
      dir.large = l;
    }
    block_addr = geometry_.LargeBlockAddr(dir.large) + (new_off - kSmallBytesPerFile);
  }
  Bytes* block = txn.PutBlock(block_addr, BlockKind::kMeta4k, lock, InitDirBlock());
  DirBlockSetEntry(*block, 0, name, ino, type);
  dir.size = new_off + kBlockSize;
  return OkStatus();
}

Status FrangipaniFs::DirRemove(MetaTxn& txn, uint64_t dir_ino, Inode& dir,
                               const std::string& name) {
  LockId lock = InodeLockId(dir_ino);
  for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
    BlockRef ref = MapOffset(dir, off, kBlockSize);
    if (ref.addr == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(Bytes * block, txn.GetBlock(ref.addr, BlockKind::kMeta4k, lock));
    std::optional<DirHit> hit = DirBlockFind(*block, name);
    if (hit.has_value()) {
      DirBlockSetEntry(*block, hit->slot, "", 0, FileType::kFree);
      return OkStatus();
    }
  }
  return NotFound("no such directory entry: " + name);
}

StatusOr<bool> FrangipaniFs::DirIsEmpty(const Inode& dir, uint64_t dir_ino) {
  LockId lock = InodeLockId(dir_ino);
  for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
    BlockRef ref = MapOffset(dir, off, kBlockSize);
    if (ref.addr == 0) {
      continue;
    }
    ASSIGN_OR_RETURN(Bytes block, cache_->Read(ref.addr, kBlockSize, lock));
    if (!DirBlockEmpty(block)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

StatusOr<uint64_t> FrangipaniFs::AllocFromSegment(MetaTxn& txn, AllocSeg& alloc,
                                                  AllocKind kind, bool for_metadata) {
  const uint32_t seg = alloc.seg;
  uint64_t addr = geometry_.SegmentAddr(seg);
  ASSIGN_OR_RETURN(Bytes * block, txn.GetBlock(addr, BlockKind::kMeta4k, SegmentLockId(seg)));
  const bool small = kind == AllocKind::kSmall;
  if (!small) {
    // A block pending decommit keeps its bit, so the search below skips
    // it. Finish whatever this segment has pending, ours or another's.
    for (uint32_t i = 0; i < kLargesPerSegment; ++i) {
      if (SegPendingGet(*block, i) != 0) {
        decommits_->Add(seg, /*own=*/false);
        break;
      }
    }
  }
  std::optional<uint32_t> local =
      small ? SegFindFreeSmall(*block, for_metadata) : SegFindFreeLarge(*block, for_metadata);
  if (!local.has_value()) {
    alloc.full = true;
    return Aborted("allocation segment full");
  }
  uint32_t bit = (small ? kSegSmallBitsOff : kSegLargeBitsOff) + *local;
  SegBitSet(*block, bit, true);
  if (for_metadata) {
    uint32_t taint = kSegTaintBitsOff + (small ? 0 : kSmallsPerSegment) + *local;
    SegBitSet(*block, taint, true);
  }
  return small ? SmallOfSeg(seg, *local) : LargeOfSeg(seg, *local);
}

void FrangipaniFs::FreeInSegment(MetaTxn& txn, uint32_t seg, uint32_t bit) {
  uint64_t addr = geometry_.SegmentAddr(seg);
  StatusOr<Bytes*> block = txn.GetBlock(addr, BlockKind::kMeta4k, SegmentLockId(seg));
  if (!block.ok()) {
    return;
  }
  SegBitSet(**block, bit, false);
}

StatusOr<uint64_t> FrangipaniFs::PickInodeCandidate() {
  // Phase-1 probe: take the segment lock briefly just to look for a free
  // inode bit; the result is re-validated in phase two.
  for (uint32_t probes = 0; probes < geometry_.num_segments; ++probes) {
    uint32_t seg;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      seg = alloc_seg_;
    }
    uint64_t candidate = 0;
    Status st = WithLocks({{SegmentLockId(seg), LockMode::kExclusive}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Bytes block,
                       cache_->Read(geometry_.SegmentAddr(seg), kBlockSize, SegmentLockId(seg)));
      std::optional<uint32_t> local = SegFindFreeInode(block);
      if (local.has_value()) {
        candidate = InodeOfSeg(seg, *local);
      }
      return OkStatus();
    });
    RETURN_IF_ERROR(st);
    if (candidate != 0) {
      return candidate;
    }
    AdvanceAllocSeg(seg);
  }
  return ResourceExhausted("no free inodes");
}

std::vector<uint32_t> FrangipaniFs::SegmentsOf(uint64_t ino, const Inode& inode) const {
  std::vector<uint32_t> segs;
  segs.push_back(SegmentOfInode(ino));
  for (uint64_t b : inode.small) {
    if (b != 0) {
      segs.push_back(SegmentOfSmall(b));
    }
  }
  if (inode.large != 0) {
    segs.push_back(SegmentOfLarge(inode.large));
  }
  std::sort(segs.begin(), segs.end());
  segs.erase(std::unique(segs.begin(), segs.end()), segs.end());
  return segs;
}

Status FrangipaniFs::FreeInodeAndBlocks(MetaTxn& txn, uint64_t ino, Inode& inode) {
  for (uint64_t b : inode.small) {
    if (b != 0) {
      FreeInSegment(txn, SegmentOfSmall(b), SmallBit(b));
    }
  }
  RETURN_IF_ERROR(FreeLargeIn(txn, inode.large, inode.size));
  FreeInSegment(txn, SegmentOfInode(ino), InodeBit(ino));
  return OkStatus();
}

namespace {
// Chunks of the large region a file of `size` bytes may have committed.
uint64_t LargeChunks(uint64_t size) {
  return size <= kSmallBytesPerFile ? 0 : (size - kSmallBytesPerFile + kChunkSize - 1) / kChunkSize;
}
}  // namespace

Status FrangipaniFs::FreeLargeIn(MetaTxn& txn, uint64_t large, uint64_t size) {
  if (large == 0) {
    return OkStatus();
  }
  const uint64_t chunks = LargeChunks(size);
  if (chunks == 0) {
    FreeInSegment(txn, SegmentOfLarge(large), LargeBit(large));
    return OkStatus();
  }
  const uint32_t seg = SegmentOfLarge(large);
  const uint64_t addr = geometry_.SegmentAddr(seg);
  ASSIGN_OR_RETURN(Bytes * block, txn.GetBlock(addr, BlockKind::kMeta4k, SegmentLockId(seg)));
  SegPendingSet(*block, LargeLocal(large), static_cast<uint32_t>(chunks));
  return OkStatus();
}

void FrangipaniFs::QueueDecommit(uint64_t large, uint64_t size) {
  if (large == 0 || LargeChunks(size) == 0) {
    return;
  }
  m_decommit_deferred_->Increment();
  decommits_->Add(SegmentOfLarge(large), /*own=*/true);
}

void FrangipaniFs::FinishDecommits(uint32_t seg, bool own) {
  if (!CheckWritable().ok()) {
    return;  // a poisoned mount leaves its markers to the next reader
  }
  const LockId lock = SegmentLockId(seg);
  const uint64_t addr = geometry_.SegmentAddr(seg);
  struct Marker {
    uint32_t local;
    uint32_t chunks;
  };
  std::vector<Marker> markers;
  uint64_t through_lsn = 0;
  // Each step runs under the segment lock.
  auto read = [&]() -> Status {
    ASSIGN_OR_RETURN(Bytes block, cache_->Read(addr, kBlockSize, lock));
    markers.clear();
    for (uint32_t i = 0; i < kLargesPerSegment; ++i) {
      if (uint32_t n = SegPendingGet(block, i); n != 0) {
        markers.push_back({i, n});
      }
    }
    // Covers every record of ours that could have set one of the markers;
    // a marker written elsewhere reached us through write-back, which made
    // its record durable first (§4).
    through_lsn = wal_->next_lsn() - 1;
    return OkStatus();
  };
  auto send = [&]() -> Status {
    uint64_t chunks = 0;
    for (const Marker& m : markers) {
      chunks += m.chunks;
    }
    obs::SpanScope span(obs::Layer::kFs, "fs.decommit", options_.node_id, "large",
                        LargeOfSeg(seg, markers.front().local), "chunks", chunks);
    // Were the freeing record lost in a crash, the file would come back
    // with its chunks gone.
    RETURN_IF_ERROR(wal_->FlushTo(through_lsn));
    for (const Marker& m : markers) {
      RETURN_IF_ERROR(device_->Decommit(geometry_.LargeBlockAddr(LargeOfSeg(seg, m.local)),
                                        uint64_t{m.chunks} * kChunkSize, FenceUs()));
    }
    return OkStatus();
  };
  size_t cleared = 0;
  auto clear = [&]() -> Status {
    MetaTxn txn(this);
    ASSIGN_OR_RETURN(Bytes * block, txn.GetBlock(addr, BlockKind::kMeta4k, lock));
    for (const Marker& m : markers) {
      const uint64_t large = LargeOfSeg(seg, m.local);
      SegPendingSet(*block, m.local, 0);
      SegBitSet(*block, LargeBit(large), false);
    }
    RETURN_IF_ERROR(txn.Commit());
    cleared = markers.size();
    return OkStatus();
  };

  // The lock is held to read and to clear the markers, not across the
  // flush and the calls. A revoke from the read on waits for the calls.
  Status st = WithLocks({{lock, LockMode::kExclusive}}, [&]() -> Status {
    RETURN_IF_ERROR(read());
    if (!markers.empty()) {
      decommits_->BeginSending();
    }
    return OkStatus();
  });
  if (st.ok() && !markers.empty()) {
    st = send();
  }
  decommits_->EndSending();
  if (st.ok() && !markers.empty() && !decommits_->Revoked()) {
    st = WithLocks({{lock, LockMode::kExclusive}}, [&]() -> Status {
      // Only this worker clears markers here, and a marked block cannot be
      // allocated, so the markers are as read unless another server held
      // the lock meanwhile.
      return decommits_->Revoked() ? OkStatus() : clear();
    });
  }
  if (st.ok() && !markers.empty() && cleared == 0) {
    // Another server held the lock since the read. It may have finished
    // the markers and reused the blocks, so do the visit again holding the
    // lock throughout: a peer doing the same cannot take it from us
    // halfway, as it could if both of us retried the short way.
    st = WithLocks({{lock, LockMode::kExclusive}}, [&]() -> Status {
      RETURN_IF_ERROR(read());
      if (markers.empty()) {
        return OkStatus();
      }
      RETURN_IF_ERROR(send());
      return clear();
    });
  }
  ReportSyncError("decommit worker", st);  // failed: the markers stay for a later visit
  if (!own) {
    m_decommit_adopted_->Increment(cleared);
  }
}

Status FrangipaniFs::ForgetFreedInode(uint64_t ino, const Inode& freed) {
  // The file's content dies with it: drop, don't flush, its data entries.
  cache_->InvalidateLock(InodeDataLockId(ino));
  {
    std::lock_guard<std::mutex> guard(ra_mu_);
    ra_last_end_.erase(ino);
  }
  {
    std::lock_guard<std::mutex> guard(atime_mu_);
    atime_overlay_.erase(ino);
    mtime_overlay_.erase(ino);
  }
  if (freed.type == FileType::kDirectory) {
    // A directory's blocks are cached under its inode lock, and freed
    // blocks can be reallocated by other servers under other locks.
    RETURN_IF_ERROR(cache_->FlushLock(InodeLockId(ino)));
    cache_->InvalidateLock(InodeLockId(ino));
  }
  // A file's or symlink's inode lock covers only the inode's own block,
  // whose address never moves to another lock. Its free image stays cached
  // and dirty like any logged update (§4): the sync demon writes it home,
  // or a revoke does if another server allocates the inode, and the next
  // create here finds it in the cache.
  QueueDecommit(freed.large, freed.size);
  return OkStatus();
}

Status FrangipaniFs::DecommitLargeTail(uint64_t lsn, uint64_t large, uint64_t old_size,
                                       uint64_t new_size) {
  // Small blocks share 64 KB Petal chunks with unrelated blocks, so only
  // the large block's committed range is decommitted.
  uint64_t keep = LargeChunks(new_size) * kChunkSize;
  uint64_t end = LargeChunks(old_size) * kChunkSize;
  if (large == 0 || end <= keep) {
    return OkStatus();
  }
  // If the record were lost in a crash, the file would come back with its
  // chunks gone.
  RETURN_IF_ERROR(wal_->FlushTo(lsn));
  // A failed decommit only leaks physical space; petal.decommit_errors
  // counts it.
  (void)device_->Decommit(geometry_.LargeBlockAddr(large) + keep, end - keep, FenceUs());
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Path resolution (phase 1: acquires and releases locks as it walks)
// ---------------------------------------------------------------------------

Status FrangipaniFs::ResolveParent(const std::string& path, PathTarget* out, int depth) {
  if (depth > kMaxSymlinkDepth) {
    return InvalidArgument("too many levels of symbolic links");
  }
  ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return InvalidArgument("path resolves to the root directory");
  }
  uint64_t cur = kRootInode;
  std::string cur_path = "/";
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    const std::string& comp = parts[i];
    uint64_t next = 0;
    FileType next_type = FileType::kFree;
    std::string symlink_target;
    Status st = WithLocks({{InodeLockId(cur), LockMode::kShared}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Inode dir, ReadInode(cur));
      if (dir.type != FileType::kDirectory) {
        return NotFound("not a directory: " + cur_path);
      }
      ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(dir, cur, comp, nullptr));
      if (!hit.has_value()) {
        return NotFound("no such directory: " + comp);
      }
      next = hit->ino;
      next_type = hit->type;
      return OkStatus();
    });
    RETURN_IF_ERROR(st);
    if (next_type == FileType::kSymlink) {
      st = WithLocks({{InodeLockId(next), LockMode::kShared}}, [&]() -> Status {
        ASSIGN_OR_RETURN(Inode link, ReadInode(next));
        symlink_target = link.symlink_target;
        return OkStatus();
      });
      RETURN_IF_ERROR(st);
      std::string rest;
      for (size_t j = i + 1; j < parts.size(); ++j) {
        rest += "/" + parts[j];
      }
      std::string new_path = symlink_target.starts_with("/")
                                 ? symlink_target + rest
                                 : cur_path + "/" + symlink_target + rest;
      return ResolveParent(new_path, out, depth + 1);
    }
    cur = next;
    cur_path += (cur_path.back() == '/' ? "" : "/") + comp;
  }
  out->parent = cur;
  out->leaf = parts.back();
  out->ino = 0;
  out->type = FileType::kFree;
  return OkStatus();
}

Status FrangipaniFs::LookupLeaf(PathTarget* out) {
  RETURN_IF_ERROR(WithLocks({{InodeLockId(out->parent), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode dir, ReadInode(out->parent));
    if (dir.type != FileType::kDirectory) {
      return NotFound("not a directory");
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(dir, out->parent, out->leaf, nullptr));
    if (hit.has_value()) {
      out->ino = hit->ino;
      out->type = hit->type;
    }
    return OkStatus();
  }));
  if (out->ino != 0) {
    NoteName(out->parent, out->leaf, out->ino);
  }
  return OkStatus();
}

Status FrangipaniFs::ResolveDir(const std::string& path, PathTarget* out, int depth) {
  RETURN_IF_ERROR(ResolveParent(path, out, depth));
  return LookupLeaf(out);
}

void FrangipaniFs::NoteName(uint64_t parent, const std::string& leaf, uint64_t ino) {
  std::lock_guard<std::mutex> guard(hint_mu_);
  if (name_hints_.size() >= kMaxNameHints) {
    name_hints_.erase(name_hints_.begin());
  }
  name_hints_[{parent, leaf}] = ino;
}

void FrangipaniFs::ForgetName(uint64_t parent, const std::string& leaf) {
  std::lock_guard<std::mutex> guard(hint_mu_);
  name_hints_.erase({parent, leaf});
}

uint64_t FrangipaniFs::HintedIno(uint64_t parent, const std::string& leaf) {
  std::lock_guard<std::mutex> guard(hint_mu_);
  auto it = name_hints_.find({parent, leaf});
  return it == name_hints_.end() ? 0 : it->second;
}

StatusOr<uint64_t> FrangipaniFs::ResolveIno(const std::string& path, bool follow_leaf,
                                            int depth) {
  if (depth > kMaxSymlinkDepth) {
    return InvalidArgument("too many levels of symbolic links");
  }
  ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return kRootInode;
  }
  PathTarget t;
  RETURN_IF_ERROR(ResolveDir(path, &t, depth));
  if (t.ino == 0) {
    return NotFound("no such file: " + path);
  }
  if (follow_leaf && t.type == FileType::kSymlink) {
    std::string target;
    Status st = WithLocks({{InodeLockId(t.ino), LockMode::kShared}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Inode link, ReadInode(t.ino));
      target = link.symlink_target;
      return OkStatus();
    });
    RETURN_IF_ERROR(st);
    if (target.starts_with("/")) {
      return ResolveIno(target, true, depth + 1);
    }
    // Relative target: resolve within the parent directory. Reconstructing
    // the parent path is awkward; re-resolve via the original path's prefix.
    std::string prefix = path.substr(0, path.find_last_of('/') + 1);
    return ResolveIno(prefix + target, true, depth + 1);
  }
  return t.ino;
}

}  // namespace frangipani
