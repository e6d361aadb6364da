// Allocation bitmap segment operations (§3). Each segment is one 4 KB block:
// a 64-byte header (version for log replay) followed by bit arrays for
// inodes, small blocks, and large blocks, plus parallel "metadata taint"
// bits: a block that once held metadata is reused only for metadata so its
// on-disk version numbers stay meaningful (§4).
//
// These are pure functions over the segment block image; FrangipaniFs holds
// the segment's exclusive lock and logs the byte-level deltas.
#ifndef SRC_FS_ALLOC_H_
#define SRC_FS_ALLOC_H_

#include <optional>

#include "src/base/serial.h"
#include "src/fs/layout.h"

namespace frangipani {

Bytes InitSegmentBlock();

bool SegBitGet(const Bytes& block, uint32_t bit);
void SegBitSet(Bytes& block, uint32_t bit, bool value);

// ---- bit positions of objects within their segment ----
inline uint32_t LargeLocal(uint64_t l) {
  return static_cast<uint32_t>((l - 1) % kLargesPerSegment);
}
inline uint32_t InodeBit(uint64_t ino) {
  return kSegInodeBitsOff + static_cast<uint32_t>(ino % kInodesPerSegment);
}
inline uint32_t SmallBit(uint64_t b) {
  return kSegSmallBitsOff + static_cast<uint32_t>((b - 1) % kSmallsPerSegment);
}
inline uint32_t LargeBit(uint64_t l) {
  return kSegLargeBitsOff + LargeLocal(l);
}
inline uint32_t SmallTaintBit(uint64_t b) {
  return kSegTaintBitsOff + static_cast<uint32_t>((b - 1) % kSmallsPerSegment);
}
inline uint32_t LargeTaintBit(uint64_t l) {
  return kSegTaintBitsOff + kSmallsPerSegment +
         static_cast<uint32_t>((l - 1) % kLargesPerSegment);
}

// ---- object numbers from (segment, local index) ----
inline uint64_t InodeOfSeg(uint32_t seg, uint32_t local) {
  return static_cast<uint64_t>(seg) * kInodesPerSegment + local;
}
inline uint64_t SmallOfSeg(uint32_t seg, uint32_t local) {
  return static_cast<uint64_t>(seg) * kSmallsPerSegment + local + 1;
}
inline uint64_t LargeOfSeg(uint32_t seg, uint32_t local) {
  return static_cast<uint64_t>(seg) * kLargesPerSegment + local + 1;
}

// ---- pending-decommit extents (kSegPendingOff) ----
// `local` is the large block's index within its segment.
uint32_t SegPendingGet(const Bytes& block, uint32_t local);
void SegPendingSet(Bytes& block, uint32_t local, uint32_t chunks);

// ---- free-object search (local index within the segment) ----
std::optional<uint32_t> SegFindFreeInode(const Bytes& block);
// for_metadata selects whether the taint rule allows/marks the block.
std::optional<uint32_t> SegFindFreeSmall(const Bytes& block, bool for_metadata);
std::optional<uint32_t> SegFindFreeLarge(const Bytes& block, bool for_metadata);

}  // namespace frangipani

#endif  // SRC_FS_ALLOC_H_
