// Public operations of FrangipaniFs: namespace ops, data path, sync,
// recovery, and coherence callbacks. Split from frangipani_fs.cc only to
// keep translation units manageable.
#include <algorithm>
#include <cstring>

#include "src/base/logging.h"
#include "src/fs/frangipani_fs.h"

namespace frangipani {

// ---------------------------------------------------------------------------
// Create / Mkdir / Symlink / Link
// ---------------------------------------------------------------------------

StatusOr<uint64_t> FrangipaniFs::Create(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.create, options_.node_id);
  return CreateCommon(path, FileType::kRegular, "");
}

Status FrangipaniFs::Mkdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.mkdir, options_.node_id);
  return CreateCommon(path, FileType::kDirectory, "").status();
}

Status FrangipaniFs::Symlink(const std::string& target, const std::string& path) {
  obs::OpTrace trace(&op_metrics_.symlink, options_.node_id);
  return CreateCommon(path, FileType::kSymlink, target).status();
}

// One transaction allocates the inode and enters it in the parent
// directory, for every file type.
StatusOr<uint64_t> FrangipaniFs::CreateCommon(const std::string& path, FileType type,
                                              const std::string& symlink_target) {
  if (symlink_target.size() > kSymlinkMax) {
    return InvalidArgument("symlink target too long");
  }
  const char* op = type == FileType::kDirectory ? "mkdir"
                   : type == FileType::kSymlink ? "symlink"
                                                : "create";
  PathTarget t;
  uint64_t candidate = 0;
  // Phase one leaves the leaf alone: phase two looks it up under the
  // parent's exclusive lock anyway, and a shared lookup here would make a
  // second request for the same lock when another server holds it.
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    RETURN_IF_ERROR(ResolveParent(path, &t));
    ASSIGN_OR_RETURN(candidate, PickInodeCandidate());
    // The parent first: apply reads its inode first (FetchPlanBlocks).
    return std::vector<PlannedLock>{{kLockBarrier, LockMode::kShared},
                                    {InodeLockId(t.parent), LockMode::kExclusive},
                                    {SegmentLockId(SegmentOfInode(candidate)), LockMode::kExclusive},
                                    {InodeLockId(candidate), LockMode::kExclusive}};
  };
  auto apply = [&](AllocSeg& alloc) -> Status {
    MetaTxn txn(this);
    Bytes* parent_raw = nullptr;
    ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
    if (parent.type != FileType::kDirectory) {
      return NotFound("not a directory");
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
    if (hit.has_value()) {
      return AlreadyExists(path);
    }
    // Re-validate the inode candidate under its segment lock.
    uint32_t seg = SegmentOfInode(candidate);
    ASSIGN_OR_RETURN(Bytes * seg_block, txn.GetBlock(geometry_.SegmentAddr(seg),
                                                     BlockKind::kMeta4k, SegmentLockId(seg)));
    if (SegBitGet(*seg_block, InodeBit(candidate))) {
      return Aborted("inode candidate taken");
    }
    SegBitSet(*seg_block, InodeBit(candidate), true);

    Bytes* ino_raw = nullptr;
    ASSIGN_OR_RETURN(Inode fresh, ReadInodeIn(txn, candidate, &ino_raw));
    if (!fresh.IsFree()) {
      return Aborted("inode candidate not free on disk");
    }
    Inode node;
    node.type = type;
    node.nlink = 1;
    node.mtime_us = node.ctime_us = node.atime_us = NowUs();
    node.symlink_target = symlink_target;
    WriteInodeIn(txn, candidate, ino_raw, node);

    RETURN_IF_ERROR(DirInsert(txn, alloc, t.parent, parent, t.leaf, candidate, type));
    parent.mtime_us = NowUs();
    WriteInodeIn(txn, t.parent, parent_raw, parent);
    return txn.Commit();
  };
  RETURN_IF_ERROR(TwoPhaseOp(op, /*allocates=*/true, plan, apply));
  NoteName(t.parent, t.leaf, candidate);
  return candidate;
}

Status FrangipaniFs::Link(const std::string& existing, const std::string& path) {
  obs::OpTrace trace(&op_metrics_.link, options_.node_id);
  uint64_t ino = 0;
  PathTarget t;
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    ASSIGN_OR_RETURN(ino, ResolveIno(existing, /*follow_leaf=*/false));
    RETURN_IF_ERROR(ResolveParent(path, &t));  // phase two checks the leaf, as in create
    return std::vector<PlannedLock>{{kLockBarrier, LockMode::kShared},
                                    {InodeLockId(t.parent), LockMode::kExclusive},
                                    {InodeLockId(ino), LockMode::kExclusive}};
  };
  auto apply = [&](AllocSeg& alloc) -> Status {
    MetaTxn txn(this);
    Bytes* parent_raw = nullptr;
    ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
    if (parent.type != FileType::kDirectory) {
      return NotFound("not a directory");
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
    if (hit.has_value()) {
      return AlreadyExists(path);
    }
    Bytes* ino_raw = nullptr;
    ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, ino, &ino_raw));
    if (node.IsFree()) {
      return Aborted("link target vanished");
    }
    if (node.type == FileType::kDirectory) {
      return InvalidArgument("hard links to directories are not allowed");
    }
    node.nlink++;
    node.ctime_us = NowUs();
    WriteInodeIn(txn, ino, ino_raw, node);
    RETURN_IF_ERROR(DirInsert(txn, alloc, t.parent, parent, t.leaf, ino, node.type));
    parent.mtime_us = NowUs();
    WriteInodeIn(txn, t.parent, parent_raw, parent);
    return txn.Commit();
  };
  RETURN_IF_ERROR(TwoPhaseOp("link", /*allocates=*/true, plan, apply));
  NoteName(t.parent, t.leaf, ino);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Unlink / Rmdir
// ---------------------------------------------------------------------------

Status FrangipaniFs::RemoveCommon(const std::string& path, bool dir_expected) {
  PathTarget t;
  uint64_t expected_version = 0;
  bool first_attempt = true;
  bool hinted = false;
  // An abort on finding that the hint no longer names the entry.
  auto stale_hint = [&](const char* why) {
    if (hinted) {
      m_name_hint_stale_->Increment();
    }
    return Aborted(why);
  };
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    RETURN_IF_ERROR(ResolveParent(path, &t));
    // With a hint, phase one leaves the parent to phase two's exclusive
    // lock. A retry ignores the hint: it may be what aborted the attempt.
    t.ino = first_attempt ? HintedIno(t.parent, t.leaf) : 0;
    hinted = t.ino != 0;
    first_attempt = false;
    if (!hinted) {
      RETURN_IF_ERROR(LookupLeaf(&t));
      if (t.ino == 0) {
        return NotFound(path);
      }
    }
    // Inspect the target to learn which segments its storage spans.
    std::vector<uint32_t> segs;
    RETURN_IF_ERROR(WithLocks({{InodeLockId(t.ino), LockMode::kShared}}, [&]() -> Status {
      ASSIGN_OR_RETURN(Inode node, ReadInode(t.ino));
      if (node.IsFree()) {
        return stale_hint("target concurrently removed");
      }
      expected_version = node.version;
      segs = SegmentsOf(t.ino, node);
      return OkStatus();
    }));
    std::vector<PlannedLock> locks = {{kLockBarrier, LockMode::kShared},
                                      {InodeLockId(t.parent), LockMode::kExclusive},
                                      {InodeLockId(t.ino), LockMode::kExclusive},
                                      {InodeDataLockId(t.ino), LockMode::kExclusive}};
    for (uint32_t seg : segs) {
      locks.push_back({SegmentLockId(seg), LockMode::kExclusive});
    }
    return locks;
  };
  auto apply = [&](AllocSeg&) -> Status {
    MetaTxn txn(this);
    Bytes* parent_raw = nullptr;
    ASSIGN_OR_RETURN(Inode parent, ReadInodeIn(txn, t.parent, &parent_raw));
    if (parent.type != FileType::kDirectory) {
      return Aborted("parent vanished");
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> hit, DirFind(parent, t.parent, t.leaf, nullptr));
    if (!hit.has_value() || hit->ino != t.ino) {
      return stale_hint("directory entry changed");
    }
    Bytes* ino_raw = nullptr;
    ASSIGN_OR_RETURN(Inode node, ReadInodeIn(txn, t.ino, &ino_raw));
    if (node.version != expected_version) {
      return Aborted("inode changed since phase one");
    }
    if (dir_expected) {
      if (node.type != FileType::kDirectory) {
        return Status(StatusCode::kInvalidArgument, "not a directory");
      }
      ASSIGN_OR_RETURN(bool empty, DirIsEmpty(node, t.ino));
      if (!empty) {
        return FailedPrecondition("directory not empty");
      }
    } else if (node.type == FileType::kDirectory) {
      return InvalidArgument("is a directory (use rmdir)");
    }
    RETURN_IF_ERROR(DirRemove(txn, t.parent, parent, t.leaf));
    parent.mtime_us = NowUs();
    WriteInodeIn(txn, t.parent, parent_raw, parent);
    node.nlink--;
    const bool freed = node.nlink == 0 || node.type == FileType::kDirectory;
    if (freed) {
      RETURN_IF_ERROR(FreeInodeAndBlocks(txn, t.ino, node));
      Inode empty_node;  // type kFree
      WriteInodeIn(txn, t.ino, ino_raw, empty_node);
    } else {
      node.ctime_us = NowUs();
      WriteInodeIn(txn, t.ino, ino_raw, node);
    }
    RETURN_IF_ERROR(txn.Commit());
    return freed ? ForgetFreedInode(t.ino, node) : OkStatus();
  };
  Status st = TwoPhaseOp(dir_expected ? "rmdir" : "unlink", /*allocates=*/false, plan, apply);
  if (t.parent != 0) {
    ForgetName(t.parent, t.leaf);
  }
  return st;
}

Status FrangipaniFs::Unlink(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.unlink, options_.node_id);
  return RemoveCommon(path, false);
}

Status FrangipaniFs::Rmdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.rmdir, options_.node_id);
  return RemoveCommon(path, true);
}

// ---------------------------------------------------------------------------
// Rename
// ---------------------------------------------------------------------------

Status FrangipaniFs::Rename(const std::string& from, const std::string& to) {
  obs::OpTrace trace(&op_metrics_.rename, options_.node_id);
  PathTarget src;
  PathTarget dst;
  uint64_t dst_version = 0;
  auto plan = [&]() -> StatusOr<std::vector<PlannedLock>> {
    RETURN_IF_ERROR(ResolveDir(from, &src));
    if (src.ino == 0) {
      return NotFound(from);
    }
    RETURN_IF_ERROR(ResolveDir(to, &dst));
    if (dst.ino == src.ino && dst.parent == src.parent) {
      return std::vector<PlannedLock>{};  // rename to itself
    }
    std::vector<PlannedLock> locks = {{kLockBarrier, LockMode::kShared},
                                      {InodeLockId(src.parent), LockMode::kExclusive},
                                      {InodeLockId(dst.parent), LockMode::kExclusive}};
    if (dst.ino != 0) {
      // The destination will be replaced; learn its segments for the free.
      std::vector<uint32_t> dst_segs;
      RETURN_IF_ERROR(WithLocks({{InodeLockId(dst.ino), LockMode::kShared}}, [&]() -> Status {
        ASSIGN_OR_RETURN(Inode node, ReadInode(dst.ino));
        if (node.IsFree()) {
          return Aborted("destination concurrently removed");
        }
        dst_version = node.version;
        dst_segs = SegmentsOf(dst.ino, node);
        return OkStatus();
      }));
      locks.push_back({InodeLockId(dst.ino), LockMode::kExclusive});
      locks.push_back({InodeDataLockId(dst.ino), LockMode::kExclusive});
      for (uint32_t seg : dst_segs) {
        locks.push_back({SegmentLockId(seg), LockMode::kExclusive});
      }
    }
    return locks;
  };
  auto apply = [&](AllocSeg& alloc) -> Status {
    bool replaced = false;
    Inode replaced_inode;
    MetaTxn txn(this);
    Bytes* srcp_raw = nullptr;
    ASSIGN_OR_RETURN(Inode srcp, ReadInodeIn(txn, src.parent, &srcp_raw));
    if (srcp.type != FileType::kDirectory) {
      return Aborted("source parent vanished");
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> shit, DirFind(srcp, src.parent, src.leaf, nullptr));
    if (!shit.has_value() || shit->ino != src.ino) {
      return Aborted("source entry changed");
    }
    Bytes* dstp_raw = srcp_raw;
    Inode dstp = srcp;
    if (dst.parent != src.parent) {
      ASSIGN_OR_RETURN(dstp, ReadInodeIn(txn, dst.parent, &dstp_raw));
      if (dstp.type != FileType::kDirectory) {
        return Aborted("destination parent vanished");
      }
    }
    ASSIGN_OR_RETURN(std::optional<DirHit> dhit, DirFind(dstp, dst.parent, dst.leaf, nullptr));
    if (dst.ino == 0) {
      if (dhit.has_value()) {
        return Aborted("destination appeared");
      }
    } else {
      if (!dhit.has_value() || dhit->ino != dst.ino) {
        return Aborted("destination entry changed");
      }
      Bytes* dino_raw = nullptr;
      ASSIGN_OR_RETURN(Inode dnode, ReadInodeIn(txn, dst.ino, &dino_raw));
      if (dnode.version != dst_version) {
        return Aborted("destination inode changed");
      }
      if (dnode.type == FileType::kDirectory) {
        if (shit->type != FileType::kDirectory) {
          return InvalidArgument("cannot overwrite a directory with a file");
        }
        ASSIGN_OR_RETURN(bool empty, DirIsEmpty(dnode, dst.ino));
        if (!empty) {
          return FailedPrecondition("destination directory not empty");
        }
      }
      dnode.nlink--;
      if (dnode.nlink == 0 || dnode.type == FileType::kDirectory) {
        replaced = true;
        replaced_inode = dnode;
        RETURN_IF_ERROR(FreeInodeAndBlocks(txn, dst.ino, dnode));
        Inode empty_node;
        WriteInodeIn(txn, dst.ino, dino_raw, empty_node);
      } else {
        WriteInodeIn(txn, dst.ino, dino_raw, dnode);
      }
      RETURN_IF_ERROR(DirRemove(txn, dst.parent, dstp, dst.leaf));
    }
    RETURN_IF_ERROR(DirRemove(txn, src.parent, srcp, src.leaf));
    RETURN_IF_ERROR(DirInsert(txn, alloc, dst.parent, dstp, dst.leaf, src.ino, shit->type));
    srcp.mtime_us = NowUs();
    dstp.mtime_us = NowUs();
    if (dst.parent != src.parent) {
      WriteInodeIn(txn, src.parent, srcp_raw, srcp);
    }
    // Same directory: srcp and dstp are copies of one inode, and only
    // DirInsert (through dstp) can change its size, so dstp wins.
    WriteInodeIn(txn, dst.parent, dstp_raw, dstp);
    RETURN_IF_ERROR(txn.Commit());
    return replaced ? ForgetFreedInode(dst.ino, replaced_inode) : OkStatus();
  };
  Status st = TwoPhaseOp("rename", /*allocates=*/true, plan, apply);
  if (src.parent != 0) {
    ForgetName(src.parent, src.leaf);
  }
  if (dst.parent != 0) {
    ForgetName(dst.parent, dst.leaf);
  }
  return st;
}

// ---------------------------------------------------------------------------
// Lookup / Stat / Readdir / Readlink
// ---------------------------------------------------------------------------

StatusOr<uint64_t> FrangipaniFs::Lookup(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.lookup, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  return ResolveIno(path, /*follow_leaf=*/true);
}

StatusOr<FileAttr> FrangipaniFs::StatIno(uint64_t ino) {
  // No-op when called from Stat (the outer trace keeps accumulating).
  obs::OpTrace trace(&op_metrics_.stat, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  FileAttr attr;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
    if (node.IsFree()) {
      return NotFound("no such inode");
    }
    attr.ino = ino;
    attr.type = node.type;
    attr.size = node.type == FileType::kSymlink ? node.symlink_target.size() : node.size;
    attr.nlink = node.nlink;
    attr.mtime_us = node.mtime_us;
    attr.ctime_us = node.ctime_us;
    attr.atime_us = node.atime_us;
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  {
    std::lock_guard<std::mutex> guard(atime_mu_);
    auto it = atime_overlay_.find(ino);
    if (it != atime_overlay_.end()) {
      attr.atime_us = std::max(attr.atime_us, it->second);
    }
    // Extent-locked overwrites update mtime the same loose way (§2.1).
    auto mt = mtime_overlay_.find(ino);
    if (mt != mtime_overlay_.end()) {
      attr.mtime_us = std::max(attr.mtime_us, mt->second);
    }
  }
  return attr;
}

StatusOr<FileAttr> FrangipaniFs::Stat(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.stat, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/false));
  return StatIno(ino);
}

StatusOr<std::string> FrangipaniFs::Readlink(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.readlink, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/false));
  std::string target;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode node, ReadInode(ino));
    if (node.type != FileType::kSymlink) {
      return InvalidArgument("not a symlink");
    }
    target = node.symlink_target;
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  return target;
}

StatusOr<std::vector<DirEntry>> FrangipaniFs::Readdir(const std::string& path) {
  obs::OpTrace trace(&op_metrics_.readdir, options_.node_id);
  RETURN_IF_ERROR(CheckUsable());
  ASSIGN_OR_RETURN(uint64_t ino, ResolveIno(path, /*follow_leaf=*/true));
  std::vector<DirEntry> entries;
  Status st = WithLocks({{InodeLockId(ino), LockMode::kShared}}, [&]() -> Status {
    ASSIGN_OR_RETURN(Inode dir, ReadInode(ino));
    if (dir.type != FileType::kDirectory) {
      return InvalidArgument("not a directory");
    }
    for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
      BlockRef ref = MapOffset(dir, off, kBlockSize);
      if (ref.addr == 0) {
        continue;
      }
      ASSIGN_OR_RETURN(Bytes block, cache_->Read(ref.addr, kBlockSize, InodeLockId(ino)));
      DirBlockList(block, &entries);
    }
    return OkStatus();
  });
  RETURN_IF_ERROR(st);
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return entries;
}

}  // namespace frangipani
