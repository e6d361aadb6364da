#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/fs/alloc.h"
#include "src/fs/device.h"
#include "src/fs/dir.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/inode.h"
#include "src/fs/layout.h"
#include "src/fs/lock_provider.h"

namespace frangipani {
namespace {

// ---- inode encoding ----

TEST(InodeTest, EncodeDecodeRoundTrip) {
  Inode node;
  node.type = FileType::kRegular;
  node.nlink = 3;
  node.size = 123456;
  node.version = 99;
  node.mtime_us = 111;
  node.ctime_us = 222;
  node.atime_us = 333;
  node.small[0] = 42;
  node.small[15] = 77;
  node.large = 5;
  Bytes raw = node.Encode();
  ASSERT_EQ(raw.size(), kInodeSize);
  auto back = Inode::Decode(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, FileType::kRegular);
  EXPECT_EQ(back->nlink, 3u);
  EXPECT_EQ(back->size, 123456u);
  EXPECT_EQ(back->version, 99u);
  EXPECT_EQ(back->small[0], 42u);
  EXPECT_EQ(back->small[15], 77u);
  EXPECT_EQ(back->large, 5u);
}

TEST(InodeTest, SymlinkTargetStoredInline) {
  Inode node;
  node.type = FileType::kSymlink;
  node.symlink_target = "/some/where/else";
  auto back = Inode::Decode(node.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->symlink_target, "/some/where/else");
}

TEST(InodeTest, ZeroBlockDecodesAsFree) {
  Bytes zeros(kInodeSize, 0);
  auto node = Inode::Decode(zeros);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE(node->IsFree());
  EXPECT_EQ(node->version, 0u);
}

TEST(InodeTest, VersionFieldAtDocumentedOffset) {
  Inode node;
  node.type = FileType::kRegular;
  node.version = 0x1122334455667788ull;
  Bytes raw = node.Encode();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(raw[kInodeVersionOffset + i]) << (8 * i);
  }
  EXPECT_EQ(v, 0x1122334455667788ull);
}

// ---- directory blocks ----

TEST(DirBlockTest, InsertFindRemove) {
  Bytes block = InitDirBlock();
  EXPECT_TRUE(IsDirBlock(block));
  EXPECT_TRUE(DirBlockEmpty(block));
  auto slot = DirBlockFreeSlot(block);
  ASSERT_TRUE(slot.has_value());
  DirBlockSetEntry(block, *slot, "hello", 42, FileType::kRegular);
  EXPECT_FALSE(DirBlockEmpty(block));
  auto hit = DirBlockFind(block, "hello");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ino, 42u);
  EXPECT_EQ(hit->type, FileType::kRegular);
  EXPECT_FALSE(DirBlockFind(block, "other").has_value());
  DirBlockSetEntry(block, hit->slot, "", 0, FileType::kFree);
  EXPECT_FALSE(DirBlockFind(block, "hello").has_value());
  EXPECT_TRUE(DirBlockEmpty(block));
}

TEST(DirBlockTest, FillsExactlyEntriesPerBlock) {
  Bytes block = InitDirBlock();
  for (uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
    auto slot = DirBlockFreeSlot(block);
    ASSERT_TRUE(slot.has_value()) << i;
    DirBlockSetEntry(block, *slot, "f" + std::to_string(i), i + 1, FileType::kRegular);
  }
  EXPECT_FALSE(DirBlockFreeSlot(block).has_value());
  std::vector<DirEntry> entries;
  DirBlockList(block, &entries);
  EXPECT_EQ(entries.size(), kDirEntriesPerBlock);
}

TEST(DirBlockTest, SimilarNamesDistinguished) {
  Bytes block = InitDirBlock();
  DirBlockSetEntry(block, 0, "ab", 1, FileType::kRegular);
  DirBlockSetEntry(block, 1, "abc", 2, FileType::kRegular);
  DirBlockSetEntry(block, 2, "a", 3, FileType::kRegular);
  EXPECT_EQ(DirBlockFind(block, "ab")->ino, 1u);
  EXPECT_EQ(DirBlockFind(block, "abc")->ino, 2u);
  EXPECT_EQ(DirBlockFind(block, "a")->ino, 3u);
}

// ---- allocation bitmaps ----

TEST(AllocTest, BitSetGetClear) {
  Bytes block = InitSegmentBlock();
  EXPECT_FALSE(SegBitGet(block, 100));
  SegBitSet(block, 100, true);
  EXPECT_TRUE(SegBitGet(block, 100));
  EXPECT_FALSE(SegBitGet(block, 99));
  EXPECT_FALSE(SegBitGet(block, 101));
  SegBitSet(block, 100, false);
  EXPECT_FALSE(SegBitGet(block, 100));
}

TEST(AllocTest, FindFreeInodeSkipsAllocated) {
  Bytes block = InitSegmentBlock();
  SegBitSet(block, kSegInodeBitsOff + 0, true);
  SegBitSet(block, kSegInodeBitsOff + 1, true);
  auto i = SegFindFreeInode(block);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, 2u);
  for (uint32_t k = 0; k < kInodesPerSegment; ++k) {
    SegBitSet(block, kSegInodeBitsOff + k, true);
  }
  EXPECT_FALSE(SegFindFreeInode(block).has_value());
}

TEST(AllocTest, MetadataTaintRuleForSmallBlocks) {
  Bytes block = InitSegmentBlock();
  // Block 0 was metadata once: allocated + tainted, then freed.
  SegBitSet(block, kSegTaintBitsOff + 0, true);
  // User data must NOT get the tainted block.
  auto data = SegFindFreeSmall(block, /*for_metadata=*/false);
  ASSERT_TRUE(data.has_value());
  EXPECT_NE(*data, 0u);
  // Metadata may reuse it (prefers untainted but can take tainted).
  for (uint32_t k = 1; k < kSmallsPerSegment; ++k) {
    SegBitSet(block, kSegSmallBitsOff + k, true);  // all others allocated
  }
  EXPECT_FALSE(SegFindFreeSmall(block, false).has_value());
  auto meta = SegFindFreeSmall(block, true);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(*meta, 0u);
}

TEST(AllocTest, ObjectSegmentMappingRoundTrips) {
  // inode <-> segment
  for (uint64_t ino : {0ull, 1ull, 511ull, 512ull, 100'000ull}) {
    uint32_t seg = SegmentOfInode(ino);
    EXPECT_EQ(InodeOfSeg(seg, static_cast<uint32_t>(ino % kInodesPerSegment)), ino);
  }
  // small block (1-based) <-> segment
  for (uint64_t b : {1ull, 2ull, 8192ull, 8193ull, 50'000ull}) {
    uint32_t seg = SegmentOfSmall(b);
    EXPECT_EQ(SmallOfSeg(seg, static_cast<uint32_t>((b - 1) % kSmallsPerSegment)), b);
  }
  for (uint64_t l : {1ull, 16ull, 17ull, 1000ull}) {
    uint32_t seg = SegmentOfLarge(l);
    EXPECT_EQ(LargeOfSeg(seg, static_cast<uint32_t>((l - 1) % kLargesPerSegment)), l);
  }
}

// ---- layout algebra ----

TEST(LayoutTest, RegionsAtPaperOffsets) {
  Geometry g;
  EXPECT_EQ(g.param_base, 0u);
  EXPECT_EQ(g.log_base, 1 * kTiB);
  EXPECT_EQ(g.bitmap_base, 2 * kTiB);
  EXPECT_EQ(g.inode_base, 5 * kTiB);
  EXPECT_EQ(g.small_base, 6 * kTiB);
  EXPECT_EQ(g.large_base, 134 * kTiB);
  EXPECT_EQ(g.num_logs, 256u);
  EXPECT_EQ(g.log_bytes, 128u * 1024);
}

TEST(LayoutTest, AddressesDoNotOverlap) {
  Geometry g;
  EXPECT_LT(g.LogAddr(g.num_logs - 1) + g.log_bytes, g.bitmap_base);
  EXPECT_LT(g.SegmentAddr(g.num_segments - 1) + kBlockSize, g.inode_base);
  EXPECT_LT(g.InodeAddr(g.MaxInodes()), g.small_base);
  EXPECT_LT(g.SmallBlockAddr(g.MaxSmallBlocks()), g.large_base);
}

TEST(LayoutTest, LockIdOrderingMatchesAcquisitionHierarchy) {
  // barrier < log < segment < inode: the global sort order of §5.
  EXPECT_LT(kLockBarrier, LogLockId(0));
  EXPECT_LT(LogLockId(255), SegmentLockId(0));
  EXPECT_LT(SegmentLockId(Geometry{}.num_segments), InodeLockId(0));
  EXPECT_TRUE(IsInodeLock(InodeLockId(12345)));
  EXPECT_EQ(InodeOfLock(InodeLockId(12345)), 12345u);
  EXPECT_TRUE(IsSegmentLock(SegmentLockId(7)));
  EXPECT_EQ(SegmentOfLock(SegmentLockId(7)), 7u);
}

TEST(LayoutTest, GeometryEncodeDecode) {
  Geometry g;
  g.num_segments = 1234;
  g.log_bytes = 64 * 1024;
  Encoder enc;
  g.Encode(enc);
  Bytes buf = enc.Take();
  Decoder dec(buf);
  Geometry back = Geometry::Decode(dec);
  EXPECT_EQ(back.num_segments, 1234u);
  EXPECT_EQ(back.log_bytes, 64u * 1024);
  EXPECT_EQ(back.large_base, g.large_base);
}

TEST(LayoutTest, FileSizeLimits) {
  Geometry g;
  EXPECT_EQ(g.MaxFileSize(), kSmallBytesPerFile + kTiB);
  // Paper: ~16 million large files.
  EXPECT_GE(g.MaxLargeBlocks(), 1u << 20);
}

// ---- allocation under segment locks (§3) ----

// LocalLocks that records every Acquire's mode and, after it, the set of
// locks held exclusively at that moment. Single-threaded use only.
class RecordingLocks : public LocalLocks {
 public:
  Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{}) override {
    RETURN_IF_ERROR(LocalLocks::Acquire(lock, mode, range));
    modes_[lock] += mode == LockMode::kExclusive ? "X" : "S";
    held_[lock] = mode;
    std::set<LockId> exclusive;
    for (const auto& [id, m] : held_) {
      if (m == LockMode::kExclusive) {
        exclusive.insert(id);
      }
    }
    snapshots_.push_back(std::move(exclusive));
    return OkStatus();
  }
  void Release(LockId lock, LockRange range = LockRange{}) override {
    held_.erase(lock);
    LocalLocks::Release(lock, range);
  }

  void ClearSnapshots() {
    snapshots_.clear();
    modes_.clear();
  }
  // The modes `lock` was acquired in since the last ClearSnapshots, one
  // letter ("S" or "X") per Acquire.
  std::string Modes(LockId lock) const {
    auto it = modes_.find(lock);
    return it == modes_.end() ? "" : it->second;
  }
  // True when some Acquire left `a` and `b` both held exclusively.
  bool HeldTogether(LockId a, LockId b) const {
    for (const std::set<LockId>& x : snapshots_) {
      if (x.count(a) > 0 && x.count(b) > 0) {
        return true;
      }
    }
    return false;
  }

 private:
  std::map<LockId, LockMode> held_;
  std::map<LockId, std::string> modes_;
  std::vector<std::set<LockId>> snapshots_;
};

class SegmentLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    geometry_.num_segments = 16;
    ASSERT_TRUE(FrangipaniFs::Mkfs(&device_, geometry_).ok());
  }

  void MountFs() {
    FsOptions opts;
    fs_ = std::make_unique<FrangipaniFs>(&device_, &locks_, SystemClock::Get(), opts);
    ASSERT_TRUE(fs_->Mount().ok());
  }

  // The durable inode (after a full sync).
  Inode DiskInode(uint64_t ino) {
    EXPECT_TRUE(fs_->SyncAll().ok());
    Bytes raw;
    EXPECT_TRUE(device_.Read(geometry_.InodeAddr(ino), kInodeSize, &raw).ok());
    StatusOr<Inode> node = Inode::Decode(raw);
    EXPECT_TRUE(node.ok());
    return node.ok() ? *node : Inode{};
  }

  LocalDevice device_{1, PhysDiskParams{.timing_enabled = false}};
  Geometry geometry_;
  RecordingLocks locks_;
  std::unique_ptr<FrangipaniFs> fs_;
};

// A rename into a directory whose blocks are all full grows it by a block;
// that block must come from a segment the rename holds exclusively.
TEST_F(SegmentLockTest, RenameGrowingDirectoryHoldsItsSegmentLock) {
  MountFs();
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Create("/a/f").ok());
  for (uint32_t i = 0; i < kDirEntriesPerBlock; ++i) {
    ASSERT_TRUE(fs_->Create("/d/e" + std::to_string(i)).ok());
  }
  StatusOr<FileAttr> d = fs_->Stat("/d");
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->size, kBlockSize);  // one block, every slot taken

  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Rename("/a/f", "/d/x").ok());
  d = fs_->Stat("/d");
  ASSERT_TRUE(d.ok());
  ASSERT_EQ(d->size, 2u * kBlockSize);
  Inode dir = DiskInode(d->ino);
  ASSERT_NE(dir.small[1], 0u);
  uint32_t seg = SegmentOfSmall(dir.small[1]);
  EXPECT_TRUE(locks_.HeldTogether(InodeLockId(d->ino), SegmentLockId(seg)))
      << "directory grew from segment " << seg << " without holding its lock";
  ASSERT_TRUE(fs_->Unmount().ok());
}

// §5: phase one of a create or link does not look at the leaf, and an
// unlink of a name this mount created takes the target from its name hint,
// so each acquires the parent's lock once, exclusive, in phase two.
TEST_F(SegmentLockTest, CreateLinkAndUnlinkAcquireTheParentLockOnce) {
  MountFs();
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  ASSERT_TRUE(fs_->Mkdir("/e").ok());
  ASSERT_TRUE(fs_->Create("/e/src").ok());
  StatusOr<uint64_t> d = fs_->Lookup("/d");
  ASSERT_TRUE(d.ok());
  const LockId parent = InodeLockId(*d);
  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Create("/d/f").ok());
  EXPECT_EQ(locks_.Modes(parent), "X");
  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Link("/e/src", "/d/g").ok());
  EXPECT_EQ(locks_.Modes(parent), "X");
  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_EQ(locks_.Modes(parent), "X");
  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Unlink("/d/g").ok());  // the link noted its name too
  EXPECT_EQ(locks_.Modes(parent), "X");
  // Without a hint, the unlink looks the name up under a shared lock first.
  ASSERT_TRUE(fs_->Create("/d/h").ok());
  ASSERT_TRUE(fs_->Unmount().ok());
  MountFs();
  locks_.ClearSnapshots();
  ASSERT_TRUE(fs_->Unlink("/d/h").ok());
  EXPECT_EQ(locks_.Modes(parent), "SX");
  ASSERT_TRUE(fs_->Unmount().ok());
}

// A directory that must grow while the allocation segment has no free
// small block takes its block from the next segment instead of failing.
TEST_F(SegmentLockTest, FullAllocationSegmentMovesToTheNext) {
  // Slot 0 allocates from segment 0 first; mark all its small blocks used.
  Bytes seg0;
  ASSERT_TRUE(device_.Read(geometry_.SegmentAddr(0), kBlockSize, &seg0).ok());
  for (uint32_t i = 0; i < kSmallsPerSegment; ++i) {
    SegBitSet(seg0, kSegSmallBitsOff + i, true);
  }
  ASSERT_TRUE(device_.Write(geometry_.SegmentAddr(0), seg0, 0).ok());
  MountFs();

  ASSERT_TRUE(fs_->Mkdir("/d").ok());  // the root's first directory block
  Inode root = DiskInode(kRootInode);
  ASSERT_NE(root.small[0], 0u);
  EXPECT_EQ(SegmentOfSmall(root.small[0]), 1u);
  ASSERT_TRUE(fs_->Create("/d/f").ok());
  ASSERT_TRUE(fs_->Unmount().ok());
}

}  // namespace
}  // namespace frangipani
