// The Frangipani file server module: the paper's core contribution.
//
// Runs identically on every machine over one shared block device (a Petal
// virtual disk), coordinating through the lock service:
//  - one lock per file/directory/symlink covering the inode and all its data,
//    per-segment bitmap locks, and a global barrier lock for backup;
//  - operations follow the two-phase deadlock-avoidance protocol of §5:
//    determine the lock set (acquiring and releasing locks to do lookups),
//    sort by lock id, acquire in order, then validate that nothing examined
//    in phase one changed — retrying from scratch if it did;
//  - metadata updates are redo-logged (§4) through a per-server log in
//    Petal; user data is not logged;
//  - dirty data is flushed to Petal on write-lock release/downgrade and
//    cache entries are invalidated on release (§5) — wired to the clerk's
//    revoke callback via OnLockRevoked;
//  - on lease loss the cache is discarded and the mount is poisoned (§6);
//  - RecoverSlot replays a crashed peer's log (the recovery demon, §4);
//  - a freed large block is decommitted from Petal in the background, behind
//    a logged pending-decommit marker (DecommitWorker).
//
// The class is passive: periodic work (sync demon, lease renewal) is driven
// externally (FrangipaniNode) or by tests calling SyncAll directly.
#ifndef SRC_FS_FRANGIPANI_FS_H_
#define SRC_FS_FRANGIPANI_FS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread_pool.h"
#include "src/fs/alloc.h"
#include "src/fs/block_cache.h"
#include "src/fs/decommit_worker.h"
#include "src/fs/device.h"
#include "src/fs/dir.h"
#include "src/fs/inode.h"
#include "src/fs/layout.h"
#include "src/fs/lock_provider.h"
#include "src/fs/wal.h"
#include "src/obs/trace.h"

namespace frangipani {

inline constexpr uint32_t kParamMagic = 0x46524750;  // "FRGP"

// Read-ahead window, in cache units (1 MB of 64 KB large-region units). The
// prefetch pool has one thread per unit, so a sequential reader keeps the
// whole window in flight. 16 is the knee of a stream_rw sweep over 8, 12,
// 16 and 24 units (EXPERIMENTS.md, "read-ahead keeps its window in flight").
inline constexpr uint32_t kReadaheadUnits = 16;

struct FsOptions {
  bool sync_log = false;            // flush the log before returning from metadata ops
  bool read_only = false;           // snapshot mounts
  uint32_t node_id = 0;             // simulated machine id for flight-recorder spans
};

struct FileAttr {
  uint64_t ino = 0;
  FileType type = FileType::kFree;
  uint64_t size = 0;
  uint32_t nlink = 0;
  int64_t mtime_us = 0;
  int64_t ctime_us = 0;
  int64_t atime_us = 0;
};

struct FsStats {
  uint64_t operations = 0;
  uint64_t retries = 0;       // two-phase validation failures
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t log_records = 0;
  uint64_t prefetches = 0;
  uint64_t prefetch_wasted = 0;
};

class FrangipaniFs {
 public:
  FrangipaniFs(BlockDevice* device, LockProvider* locks, Clock* clock, FsOptions options = {});
  ~FrangipaniFs();

  // Formats a fresh file system (empty root directory) on the device.
  static Status Mkfs(BlockDevice* device, const Geometry& geometry);

  Status Mount();
  Status Unmount();
  bool mounted() const { return mounted_; }

  // ---- namespace operations (absolute paths, '/'-separated) ----
  StatusOr<uint64_t> Create(const std::string& path);
  Status Mkdir(const std::string& path);
  Status Symlink(const std::string& target, const std::string& path);
  Status Link(const std::string& existing, const std::string& path);
  Status Unlink(const std::string& path);
  Status Rmdir(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  StatusOr<uint64_t> Lookup(const std::string& path);  // follows symlinks
  StatusOr<FileAttr> Stat(const std::string& path);    // lstat semantics
  StatusOr<FileAttr> StatIno(uint64_t ino);
  StatusOr<std::string> Readlink(const std::string& path);
  StatusOr<std::vector<DirEntry>> Readdir(const std::string& path);

  // ---- file I/O ----
  StatusOr<size_t> Read(uint64_t ino, uint64_t offset, size_t length, Bytes* out);
  Status Write(uint64_t ino, uint64_t offset, const Bytes& data);
  Status Truncate(uint64_t ino, uint64_t new_size);
  Status Fsync(uint64_t ino);

  // The update demon's work: finishes the decommits queued so far, then
  // writes the log and all dirty blocks in one write-back batch (§4).
  Status SyncAll();
  Status FlushLog();
  // For flushes no caller waits on (the sync and log-flush demons, the
  // backup barrier): a failure is counted in fs.sync.errors and logged.
  void ReportSyncError(const char* who, const Status& st);
  // Flush + drop the buffer cache (benchmarks: uncached experiments).
  Status DropCaches();

  // ---- recovery & coherence hooks (wired to the clerk) ----
  Status RecoverSlot(uint32_t dead_slot);
  void OnLockRevoked(LockId lock, LockMode new_mode, LockRange range = LockRange{});
  void OnLeaseLost();

  bool poisoned() const { return poisoned_.load(); }
  const Geometry& geometry() const { return geometry_; }
  FsStats Stats() const;
  BlockCache* cache() { return cache_.get(); }
  LogWriter* wal() { return wal_.get(); }

  void SetReadahead(bool enabled);
  // Tests: while held, freed large blocks stay marked pending-decommit and
  // SyncAll waits. Unmount lifts the hold.
  void HoldDecommits(bool hold);

 private:
  struct PathTarget {
    uint64_t parent = 0;     // inode of the containing directory
    std::string leaf;        // last component
    uint64_t ino = 0;        // 0 if the leaf does not exist
    FileType type = FileType::kFree;
  };

  // A metadata transaction: mutates block images read through the cache and
  // commits them as one atomic log record. The record carries, per block,
  // only the byte spans that differ from the image read (§4); a block whose
  // image did not change is neither logged nor re-dirtied.
  class MetaTxn {
   public:
    explicit MetaTxn(FrangipaniFs* fs) : fs_(fs) {}
    // Returns a mutable image of the block; reads through the cache. The
    // caller must hold `lock` in exclusive mode.
    StatusOr<Bytes*> GetBlock(uint64_t addr, BlockKind kind, LockId lock);
    // Seeds a block image without reading the device (freshly allocated);
    // the block is logged whole.
    Bytes* PutBlock(uint64_t addr, BlockKind kind, LockId lock, Bytes data);
    Status Commit();
    // The committed record's lsn (0 before Commit, or if nothing changed).
    uint64_t lsn() const { return lsn_; }

   private:
    struct Block {
      BlockKind kind;
      LockId lock;
      Bytes data;
      // The image as read, which Commit diffs `data` against; empty for a
      // block from PutBlock.
      Bytes base;
    };
    FrangipaniFs* fs_;
    std::map<uint64_t, Block> blocks_;
    uint64_t lsn_ = 0;
  };

  // ---- lock plan execution ----
  struct PlannedLock {
    LockId id;
    LockMode mode;
    LockRange range{};  // byte extent; full for metadata locks
  };
  // Acquires the locks in sorted order, runs fn, releases. fn returning
  // kAborted triggers the caller's retry loop.
  Status WithLocks(std::vector<PlannedLock> locks, const std::function<Status()>& fn);
  // The fetch rule of phase two, run once `locks` are held: each inode lock
  // names its inode block and each segment lock its bitmap; data locks and
  // the barrier name none. Of the named blocks missing from the cache, all
  // but the first (in plan order) start on the prefetch pool, and the
  // first is read on this thread, so apply's reads ride fetches already in
  // flight instead of reading one block after another.
  Status FetchPlanBlocks(const std::vector<PlannedLock>& locks);

  // The allocation segment of one attempt of a mutating op. §3: a server
  // allocates only from a segment whose lock it holds, so this is the one
  // segment phase two locks for allocation and the only one it allocates
  // from.
  struct AllocSeg {
    uint32_t seg = 0;
    bool full = false;  // set by AllocFromSegment; the retry moves on
  };
  // Phase one of a mutating op: lookups that take and drop locks. Returns
  // the lock set phase two needs (empty = nothing to do).
  using PlanFn = std::function<StatusOr<std::vector<PlannedLock>>()>;
  // Phase two, under the planned locks: checks that nothing phase one saw
  // has changed (kAborted if it has) and applies the update.
  using ApplyFn = std::function<Status(AllocSeg& alloc)>;
  // The §5 shape every mutating op shares: refuses unusable and read-only
  // mounts, then runs a bounded number of attempts of plan + apply,
  // retrying on kAborted. When `allocates`, each attempt reads alloc_seg_
  // once after phase one, adds its exclusive lock to the plan and passes it
  // to apply; an attempt that found it full rotates alloc_seg_. Before
  // apply, FetchPlanBlocks reads the plan's cold blocks, so a plan lists
  // first the lock whose block apply reads first. Counts each retry in
  // fs.retries and each phase-two abort also in fs.abort.<op>, counts the
  // op on success, and fails with "<op>: too many conflicts".
  Status TwoPhaseOp(const char* op, bool allocates, const PlanFn& plan, const ApplyFn& apply);
  // Moves alloc_seg_ past `full_seg` unless another thread already did.
  void AdvanceAllocSeg(uint32_t full_seg);

  Status CheckUsable() const;
  // CheckUsable, and refuse read-only (snapshot) mounts.
  Status CheckWritable() const;
  // §6 hazard check: before attempting Petal writes, the lease must still be
  // valid for `margin` (scaled to the installation's lease duration). A
  // refusal is counted in `refusals`, the calling site's
  // fs.stale_lease.<site> counter.
  Status CheckWriteLease(obs::Counter* refusals) const;

  // ---- phase-1 helpers (take and drop locks internally) ----
  // Walks `path` to the directory that holds its last component, looking up
  // each intermediate component under a shared lock and following symlinks.
  // Sets parent and leaf; the leaf itself is not looked up (ino = 0).
  Status ResolveParent(const std::string& path, PathTarget* out, int depth = 0);
  // Looks out->leaf up in out->parent under the parent's shared lock and
  // sets ino and type (ino = 0 if absent). A hit is noted as a name hint.
  Status LookupLeaf(PathTarget* out);
  // ResolveParent, then LookupLeaf.
  Status ResolveDir(const std::string& path, PathTarget* out, int depth = 0);
  StatusOr<uint64_t> ResolveIno(const std::string& path, bool follow_leaf, int depth = 0);

  // ---- under-lock primitives ----
  StatusOr<Inode> ReadInode(uint64_t ino);
  StatusOr<Inode> ReadInodeIn(MetaTxn& txn, uint64_t ino, Bytes** raw);
  void WriteInodeIn(MetaTxn& txn, uint64_t ino, Bytes* raw, const Inode& inode);
  // Looks `name` up in directory `dir` (lock already held).
  StatusOr<std::optional<DirHit>> DirFind(const Inode& dir, uint64_t dir_ino,
                                          const std::string& name, uint64_t* block_addr);
  // Adds the entry, growing the directory by a block from `alloc` if every
  // block is full.
  Status DirInsert(MetaTxn& txn, AllocSeg& alloc, uint64_t dir_ino, Inode& dir,
                   const std::string& name, uint64_t ino, FileType type);
  Status DirRemove(MetaTxn& txn, uint64_t dir_ino, Inode& dir, const std::string& name);
  StatusOr<bool> DirIsEmpty(const Inode& dir, uint64_t dir_ino);

  // Data block mapping: cache unit covering file offset `off`.
  struct BlockRef {
    uint64_t addr = 0;       // cache-unit base address (0 = hole)
    uint32_t unit = 0;       // cache-unit size (4 KB small / 64 KB large)
    uint32_t off_in_unit = 0;
    uint32_t len = 0;        // bytes of the request inside this unit
  };
  BlockRef MapOffset(const Inode& inode, uint64_t off, uint64_t len) const;

  // Stages `data` at file offset `offset` into the cache under the inode's
  // data lock (caller holds it exclusively over the written extent, and the
  // range must be fully allocated and within node.size unless the caller
  // just extended/allocated it). Entries carry range_off = file offset of
  // the cache unit, so ranged flush/invalidate can select them.
  Status StageData(const Inode& node, uint64_t ino, uint64_t offset, const Bytes& data,
                   const std::vector<uint64_t>& fresh_units = {});

  // Allocation (caller holds the segment's lock exclusively). A full
  // segment sets alloc.full and aborts the attempt.
  enum class AllocKind { kSmall, kLarge };
  StatusOr<uint64_t> AllocFromSegment(MetaTxn& txn, AllocSeg& alloc, AllocKind kind,
                                      bool for_metadata);
  void FreeInSegment(MetaTxn& txn, uint32_t seg, uint32_t bit);
  // Picks a candidate inode (phase 1): probes segments until one has a free
  // inode bit, updating alloc_seg_.
  StatusOr<uint64_t> PickInodeCandidate();

  // Segments whose locks an op that frees `inode`'s storage must hold.
  std::vector<uint32_t> SegmentsOf(uint64_t ino, const Inode& inode) const;

  Status FreeInodeAndBlocks(MetaTxn& txn, uint64_t ino, Inode& inode);
  // Frees large block `large` of a file of `size` bytes in `txn`: a block
  // with committed chunks keeps its allocation bit and gets a
  // pending-decommit extent; QueueDecommit hands it to the worker once the
  // txn has committed and the file's cached data is dropped.
  Status FreeLargeIn(MetaTxn& txn, uint64_t large, uint64_t size);
  void QueueDecommit(uint64_t large, uint64_t size);
  // The worker's visit of segment `seg`: reads its markers under the
  // segment lock, flushes the log through them and decommits their extents
  // holding no lock, then clears them under the lock in a second record.
  // The markers count as adopted unless `own` (a free here queued the visit).
  void FinishDecommits(uint32_t seg, bool own);
  // Phase two of an op whose committed `txn` freed inode `ino` (`freed` is
  // its image before the free), still under the op's locks: drops the
  // file's data entries and in-memory times, writes home and drops a
  // directory's blocks, and queues the large block's decommit. A file's or
  // symlink's inode block stays cached and dirty.
  Status ForgetFreedInode(uint64_t ino, const Inode& freed);
  // Returns to Petal the chunks of large block `large`, which the file
  // keeps, past a shrink from `old_size` to `new_size` bytes. The caller
  // holds the file's data lock. The log is made durable through `lsn`, the
  // record that shrank the file, before anything is decommitted.
  Status DecommitLargeTail(uint64_t lsn, uint64_t large, uint64_t old_size, uint64_t new_size);

  // Shared create/mkdir/symlink implementation.
  StatusOr<uint64_t> CreateCommon(const std::string& path, FileType type,
                                  const std::string& symlink_target);
  // Shared unlink/rmdir implementation.
  Status RemoveCommon(const std::string& path, bool dir_expected);

  // Name hints: (parent ino, leaf) -> ino, as this mount last saw it. Its
  // creates, links and leaf lookups note them; its removes and renames
  // forget them. RemoveCommon's first attempt takes the target from a hint
  // instead of looking it up under the parent's shared lock; phase two
  // re-checks the entry and the inode version, so a stale hint costs one
  // retry, which ignores it. HintedIno returns 0 without a hint.
  void NoteName(uint64_t parent, const std::string& leaf, uint64_t ino);
  void ForgetName(uint64_t parent, const std::string& leaf);
  uint64_t HintedIno(uint64_t parent, const std::string& leaf);

  int64_t FenceUs() const;
  int64_t NowUs() const;
  void NoteRetry();

  // Starts the fetches of a Read of [offset, end) before the read waits on
  // its units. One pass queues on the prefetch pool first the read's own
  // units, then, if the read continues a sequential scan, the
  // kReadaheadUnits units past it that the clerk's cached extents cover
  // (read-ahead). A lone own unit stays on the caller's thread: the copy
  // loop reads it if no read-ahead follows; otherwise, if it misses, it is
  // read here before the read-ahead is queued.
  void StartReadFetches(uint64_t ino, const Inode& inode, uint64_t offset, uint64_t end);
  // Reads cache unit `unit_addr` (`unit` bytes at file offset `unit_off`)
  // into the cache on the prefetch pool, unless it is cached or in flight.
  // The data is dropped if `lock`'s epoch has moved past `epoch`, which the
  // caller samples before it decides the lock covers the unit. A
  // `plan_fetch` (FetchPlanBlocks) goes to the front of the pool's queue,
  // ahead of waiting read-ahead units, and counts as fs.plan_fetch_wasted
  // when dropped. Returns whether it started the read.
  bool StartPrefetch(uint64_t unit_addr, uint32_t unit, uint64_t unit_off, LockId lock,
                     uint64_t epoch, bool plan_fetch = false);
  // The read behind StartPrefetch, on the calling thread, for a unit whose
  // BeginPrefetch the caller has won.
  void FetchUnit(uint64_t unit_addr, uint32_t unit, uint64_t unit_off, LockId lock,
                 uint64_t epoch, bool plan_fetch = false);

  BlockDevice* device_;
  LockProvider* locks_;
  Clock* clock_;
  FsOptions options_;

  Geometry geometry_;
  std::atomic<bool> mounted_{false};
  std::atomic<bool> poisoned_{false};

  std::unique_ptr<LogWriter> wal_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<ThreadPool> prefetch_pool_;
  std::unique_ptr<DecommitWorker> decommits_;

  std::mutex alloc_mu_;
  uint32_t alloc_seg_ = 0;

  // A full map drops an arbitrary hint; that name's next remove then does
  // the shared lookup, as without hints.
  static constexpr size_t kMaxNameHints = 4096;
  std::mutex hint_mu_;
  std::map<std::pair<uint64_t, std::string>, uint64_t> name_hints_;

  std::mutex ra_mu_;
  std::map<uint64_t, uint64_t> ra_last_end_;  // ino -> end of its last read
  std::atomic<bool> readahead_on_{true};

  std::mutex atime_mu_;
  // §2.1: approximate atime, in this mount's memory only. StatIno reports
  // the later of it and the inode's atime_us.
  std::map<uint64_t, int64_t> atime_overlay_;
  // mtime of extent-locked overwrites, kept the same way: the fast write
  // path holds only a shared inode lock (writers to disjoint ranges must
  // not contend on the inode record), so it records mtime here. Only a
  // slow-path write, which writes the inode's mtime, erases the entry;
  // other mounts never see it.
  std::map<uint64_t, int64_t> mtime_overlay_;

  // Per-instance op counts, lock-free (cache hits/misses live in the cache).
  // The cross-instance aggregate view lives in the obs metrics registry.
  struct AtomicStats {
    std::atomic<uint64_t> operations{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> log_records{0};
    std::atomic<uint64_t> prefetches{0};
    std::atomic<uint64_t> prefetch_wasted{0};
  };
  AtomicStats stats_;

  // Pre-resolved registry handles for the traced public ops; names are
  // global (op.<name>.*), so instances on every node feed the same series.
  struct OpMetricsTable {
    obs::OpMetrics create, mkdir, symlink, link, unlink, rmdir, rename;
    obs::OpMetrics lookup, stat, readlink, readdir;
    obs::OpMetrics read, write, truncate, fsync;
    explicit OpMetricsTable(obs::MetricsRegistry* r);
  };
  OpMetricsTable op_metrics_;
  // Payload bytes written by revoke-driven flushes (coherence cost of
  // write sharing; should stay near zero for disjoint-extent writers).
  obs::Counter* m_revoke_flush_bytes_;
  obs::Counter* m_sync_errors_;
  obs::Counter* m_decommit_deferred_;  // large blocks this mount queued
  obs::Counter* m_decommit_adopted_;   // markers finished by visits no free here queued
  obs::Counter* m_name_hint_stale_;    // removes whose hint no longer named the entry
  obs::Counter* m_plan_fetches_;       // plan blocks started on the prefetch pool
  obs::Counter* m_plan_fetch_wasted_;  // of those, dropped by a lock-epoch change
  obs::Counter* m_stale_lease_commit_;  // write-margin refusals at a MetaTxn commit
  obs::Counter* m_stale_lease_fsync_;   // write-margin refusals at an fsync
  obs::Counter* m_retries_;             // conflict retries of two-phase ops
};

// Parses a path into components; rejects empty names and names over the
// directory limit.
StatusOr<std::vector<std::string>> SplitPath(const std::string& path);

}  // namespace frangipani

#endif  // SRC_FS_FRANGIPANI_FS_H_
