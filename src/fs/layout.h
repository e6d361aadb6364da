// Frangipani on-disk layout (§3, Figure 4). The 2^64-byte sparse Petal
// address space is carved into regions at the paper's offsets:
//
//   [0, 1T)        configuration parameters ("superblock")
//   [1T, 2T)       256 private per-server logs
//   [2T, 5T)       allocation bitmaps, split into exclusively-locked segments
//   [5T, 6T)       inodes, 512 bytes each
//   [6T, 6T+2^47)  small blocks, 4 KB each
//   [134T, 2^64)   large blocks, 1 TB of address space each
//
// A file's first 64 KB live in 16 small blocks; anything beyond that lives in
// one large block. Petal commits physical space in 64 KB chunks only where
// written, so the sparseness costs nothing.
//
// Also defined here: the lock-id name space. One lock covers each file or
// directory (its inode and all its data); each bitmap segment and each log
// has its own lock; a single global barrier lock serializes backup (§8).
// The numeric lock-id order is the global acquisition order used by the
// deadlock-avoidance protocol (§5): barrier < logs < bitmap segments <
// inodes, and within a class, by address.
#ifndef SRC_FS_LAYOUT_H_
#define SRC_FS_LAYOUT_H_

#include <cstdint>

#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/lock/types.h"

namespace frangipani {

inline constexpr uint64_t kTiB = 1ull << 40;

inline constexpr uint32_t kInodeSize = 512;
inline constexpr uint32_t kBlockSize = 4096;       // small blocks & dir blocks
inline constexpr uint32_t kSmallBlocksPerFile = 16;
inline constexpr uint32_t kSmallBytesPerFile = kSmallBlocksPerFile * kBlockSize;  // 64 KB

// Per bitmap segment (one 4 KB bitmap block each):
inline constexpr uint32_t kInodesPerSegment = 512;
inline constexpr uint32_t kSmallsPerSegment = 8192;  // 16 small blocks per inode
inline constexpr uint32_t kLargesPerSegment = 16;

struct Geometry {
  uint64_t param_base = 0;
  uint64_t log_base = 1 * kTiB;
  uint32_t num_logs = 256;
  uint32_t log_bytes = 128 * 1024;  // paper: logs bounded at 128 KB
  uint64_t log_stride = kTiB / 256; // 4 GB of address space per log

  uint64_t bitmap_base = 2 * kTiB;
  uint32_t num_segments = 1 << 16;  // 64 Ki segments -> 32 Mi inodes

  uint64_t inode_base = 5 * kTiB;
  uint64_t small_base = 6 * kTiB;
  uint64_t large_base = 134 * kTiB;
  uint64_t large_span = kTiB;       // address space reserved per large block

  // ---- derived quantities ----
  uint64_t MaxInodes() const { return static_cast<uint64_t>(num_segments) * kInodesPerSegment; }
  uint64_t MaxSmallBlocks() const {
    return static_cast<uint64_t>(num_segments) * kSmallsPerSegment;
  }
  uint64_t MaxLargeBlocks() const {
    return static_cast<uint64_t>(num_segments) * kLargesPerSegment;
  }
  uint64_t MaxFileSize() const { return kSmallBytesPerFile + large_span; }

  // ---- address algebra (indices are 1-based; 0 means "none") ----
  uint64_t InodeAddr(uint64_t ino) const { return inode_base + ino * kInodeSize; }
  uint64_t SmallBlockAddr(uint64_t b) const { return small_base + (b - 1) * kBlockSize; }
  uint64_t LargeBlockAddr(uint64_t l) const { return large_base + (l - 1) * large_span; }
  uint64_t SegmentAddr(uint32_t seg) const { return bitmap_base + uint64_t{seg} * kBlockSize; }
  uint64_t LogAddr(uint32_t slot) const { return log_base + uint64_t{slot} * log_stride; }

  void Encode(Encoder& enc) const;
  static Geometry Decode(Decoder& dec);
};

// ---- lock-id name space ----
inline constexpr LockId kLockBarrier = 1;
inline constexpr LockId kLockBaseLog = 0x100;
inline constexpr LockId kLockBaseSegment = 0x10000;
inline constexpr LockId kLockBaseInode = 1ull << 32;
// Regular-file *content* is guarded by a separate data lock per inode whose
// byte ranges are file offsets (extent locking); the inode lock keeps
// guarding the inode record and directory blocks with whole-lock semantics.
inline constexpr LockId kLockBaseInodeData = 1ull << 40;

inline LockId LogLockId(uint32_t slot) { return kLockBaseLog + slot; }
inline LockId SegmentLockId(uint32_t seg) { return kLockBaseSegment + seg; }
inline LockId InodeLockId(uint64_t ino) { return kLockBaseInode + ino; }
inline LockId InodeDataLockId(uint64_t ino) { return kLockBaseInodeData + ino; }
inline bool IsInodeLock(LockId id) { return id >= kLockBaseInode && id < kLockBaseInodeData; }
inline bool IsInodeDataLock(LockId id) { return id >= kLockBaseInodeData; }
inline uint64_t InodeOfLock(LockId id) { return id - kLockBaseInode; }
inline uint64_t InodeOfDataLock(LockId id) { return id - kLockBaseInodeData; }
inline bool IsSegmentLock(LockId id) { return id >= kLockBaseSegment && id < kLockBaseInode; }
inline uint32_t SegmentOfLock(LockId id) { return static_cast<uint32_t>(id - kLockBaseSegment); }

// ---- bitmap segment geometry ----
// Bit layout inside a segment's 4 KB bitmap block (after a 64-byte header):
//   [0, 512)             inode bits
//   [512, 8704)          small-block bits
//   [8704, 8720)         large-block bits
// plus a parallel "metadata taint" bit per small/large block recording that
// the block once held metadata; such blocks are reused only for metadata
// (§4: version numbers must stay meaningful).
inline constexpr uint32_t kSegmentHeaderBytes = 64;  // holds the block version
inline constexpr uint32_t kSegInodeBitsOff = 0;
inline constexpr uint32_t kSegSmallBitsOff = kInodesPerSegment;
inline constexpr uint32_t kSegLargeBitsOff = kSegSmallBitsOff + kSmallsPerSegment;
inline constexpr uint32_t kSegAllocBits = kSegLargeBitsOff + kLargesPerSegment;
inline constexpr uint32_t kSegTaintBitsOff = kSegAllocBits;  // smalls, then larges
inline constexpr uint32_t kSegTotalBits = kSegAllocBits + kSmallsPerSegment + kLargesPerSegment;
// After the bits, one little-endian u32 per large block of the segment: a
// pending-decommit extent, in 64 KB chunks from the block's start. A freed
// large block keeps its allocation bit and gets an extent; whoever finishes
// the decommit clears both in one logged update. 0 = none pending.
inline constexpr uint32_t kSegPendingOff = kSegmentHeaderBytes + (kSegTotalBits + 7) / 8;
static_assert(kSegPendingOff + 4 * kLargesPerSegment <= kBlockSize);

// Object-index <-> segment mapping (inodes: index = ino; blocks: 1-based).
inline uint32_t SegmentOfInode(uint64_t ino) {
  return static_cast<uint32_t>(ino / kInodesPerSegment);
}
inline uint32_t SegmentOfSmall(uint64_t b) {
  return static_cast<uint32_t>((b - 1) / kSmallsPerSegment);
}
inline uint32_t SegmentOfLarge(uint64_t l) {
  return static_cast<uint32_t>((l - 1) / kLargesPerSegment);
}

inline constexpr uint64_t kRootInode = 1;

}  // namespace frangipani

#endif  // SRC_FS_LAYOUT_H_
