#include "src/fs/alloc.h"

namespace frangipani {

namespace {
uint32_t SegBitByteOffset(uint32_t bit) { return kSegmentHeaderBytes + bit / 8; }
uint32_t SegPendingByteOffset(uint32_t local) { return kSegPendingOff + 4 * local; }
}  // namespace

Bytes InitSegmentBlock() { return Bytes(kBlockSize, 0); }

bool SegBitGet(const Bytes& block, uint32_t bit) {
  return (block[SegBitByteOffset(bit)] >> (bit % 8)) & 1;
}

void SegBitSet(Bytes& block, uint32_t bit, bool value) {
  uint8_t& byte = block[SegBitByteOffset(bit)];
  if (value) {
    byte = static_cast<uint8_t>(byte | (1u << (bit % 8)));
  } else {
    byte = static_cast<uint8_t>(byte & ~(1u << (bit % 8)));
  }
}

uint32_t SegPendingGet(const Bytes& block, uint32_t local) {
  const uint8_t* p = block.data() + SegPendingByteOffset(local);
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

void SegPendingSet(Bytes& block, uint32_t local, uint32_t chunks) {
  uint8_t* p = block.data() + SegPendingByteOffset(local);
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(chunks >> (8 * i));
  }
}

std::optional<uint32_t> SegFindFreeInode(const Bytes& block) {
  for (uint32_t i = 0; i < kInodesPerSegment; ++i) {
    if (!SegBitGet(block, kSegInodeBitsOff + i)) {
      return i;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> SegFindFreeSmall(const Bytes& block, bool for_metadata) {
  // User data must avoid metadata-tainted blocks; prefer untainted blocks for
  // metadata too, but fall back to tainted ones (that is what they're for).
  std::optional<uint32_t> tainted_free;
  for (uint32_t i = 0; i < kSmallsPerSegment; ++i) {
    if (SegBitGet(block, kSegSmallBitsOff + i)) {
      continue;
    }
    bool tainted = SegBitGet(block, kSegTaintBitsOff + i);
    if (!tainted) {
      return i;
    }
    if (for_metadata && !tainted_free.has_value()) {
      tainted_free = i;
    }
  }
  return tainted_free;
}

std::optional<uint32_t> SegFindFreeLarge(const Bytes& block, bool for_metadata) {
  std::optional<uint32_t> tainted_free;
  for (uint32_t i = 0; i < kLargesPerSegment; ++i) {
    if (SegBitGet(block, kSegLargeBitsOff + i)) {
      continue;
    }
    bool tainted = SegBitGet(block, kSegTaintBitsOff + kSmallsPerSegment + i);
    if (!tainted) {
      return i;
    }
    if (for_metadata && !tainted_free.has_value()) {
      tainted_free = i;
    }
  }
  return tainted_free;
}

}  // namespace frangipani
