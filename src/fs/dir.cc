#include "src/fs/dir.h"

#include <cstring>

#include "src/base/logging.h"

namespace frangipani {

Bytes InitDirBlock() {
  Bytes block(kBlockSize, 0);
  // version (8 bytes) stays 0; magic follows.
  block[8] = static_cast<uint8_t>(kDirBlockMagic);
  block[9] = static_cast<uint8_t>(kDirBlockMagic >> 8);
  block[10] = static_cast<uint8_t>(kDirBlockMagic >> 16);
  block[11] = static_cast<uint8_t>(kDirBlockMagic >> 24);
  return block;
}

bool IsDirBlock(const Bytes& block) {
  if (block.size() != kBlockSize) {
    return false;
  }
  uint32_t magic = block[8] | (block[9] << 8) | (block[10] << 16) |
                   (static_cast<uint32_t>(block[11]) << 24);
  return magic == kDirBlockMagic;
}

namespace {

uint32_t DirEntryOffset(uint32_t slot) { return kDirBlockHeader + slot * kDirEntrySize; }

uint64_t EntryIno(const Bytes& block, uint32_t slot) {
  uint32_t off = DirEntryOffset(slot);
  uint64_t ino = 0;
  for (int i = 0; i < 8; ++i) {
    ino |= static_cast<uint64_t>(block[off + i]) << (8 * i);
  }
  return ino;
}

}  // namespace

std::optional<DirHit> DirBlockFind(const Bytes& block, const std::string& name) {
  for (uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
    uint32_t off = DirEntryOffset(slot);
    uint64_t ino = EntryIno(block, slot);
    if (ino == 0) {
      continue;
    }
    uint8_t namelen = block[off + 9];
    if (namelen != name.size()) {
      continue;
    }
    if (std::memcmp(block.data() + off + 10, name.data(), namelen) == 0) {
      return DirHit{ino, static_cast<FileType>(block[off + 8]), slot};
    }
  }
  return std::nullopt;
}

void DirBlockSetEntry(Bytes& block, uint32_t slot, const std::string& name, uint64_t ino,
                      FileType type) {
  FGP_CHECK(slot < kDirEntriesPerBlock);
  FGP_CHECK(name.size() <= kDirNameMax);
  uint32_t off = DirEntryOffset(slot);
  std::memset(block.data() + off, 0, kDirEntrySize);
  for (int i = 0; i < 8; ++i) {
    block[off + i] = static_cast<uint8_t>(ino >> (8 * i));
  }
  block[off + 8] = static_cast<uint8_t>(type);
  block[off + 9] = static_cast<uint8_t>(name.size());
  std::memcpy(block.data() + off + 10, name.data(), name.size());
}

std::optional<uint32_t> DirBlockFreeSlot(const Bytes& block) {
  for (uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
    if (EntryIno(block, slot) == 0) {
      return slot;
    }
  }
  return std::nullopt;
}

void DirBlockList(const Bytes& block, std::vector<DirEntry>* out) {
  for (uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
    uint32_t off = DirEntryOffset(slot);
    uint64_t ino = EntryIno(block, slot);
    if (ino == 0) {
      continue;
    }
    DirEntry e;
    e.ino = ino;
    e.type = static_cast<FileType>(block[off + 8]);
    uint8_t namelen = block[off + 9];
    e.name.assign(reinterpret_cast<const char*>(block.data() + off + 10), namelen);
    out->push_back(std::move(e));
  }
}

bool DirBlockEmpty(const Bytes& block) {
  for (uint32_t slot = 0; slot < kDirEntriesPerBlock; ++slot) {
    if (EntryIno(block, slot) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace frangipani
