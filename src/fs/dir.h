// Directory content format. A directory's data is stored in 4 KB blocks via
// the same block mapping as regular files, but it is metadata: each block
// carries a version number (byte 0) for log replay, and directory blocks are
// logged on update (§4). Entries are fixed-size (64 bytes) for simplicity:
// names up to 54 bytes. "." and ".." are synthesized, not stored.
#ifndef SRC_FS_DIR_H_
#define SRC_FS_DIR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/serial.h"
#include "src/fs/inode.h"

namespace frangipani {

inline constexpr uint32_t kDirBlockHeader = 16;  // u64 version, u32 magic, u32 pad
inline constexpr uint32_t kDirEntrySize = 64;
inline constexpr uint32_t kDirEntriesPerBlock = (kBlockSize - kDirBlockHeader) / kDirEntrySize;
inline constexpr uint32_t kDirNameMax = 54;
inline constexpr uint32_t kDirBlockMagic = 0x46474452;  // "FGDR"

struct DirEntry {
  std::string name;
  uint64_t ino = 0;
  FileType type = FileType::kFree;
};

struct DirHit {
  uint64_t ino;
  FileType type;
  uint32_t slot;  // entry index within the block
};

// Returns a fresh, empty directory block (version 0).
Bytes InitDirBlock();

// True if the 4 KB block carries the directory magic.
bool IsDirBlock(const Bytes& block);

std::optional<DirHit> DirBlockFind(const Bytes& block, const std::string& name);

// Writes entry `slot`; used for both insert and erase (ino = 0 erases).
void DirBlockSetEntry(Bytes& block, uint32_t slot, const std::string& name, uint64_t ino,
                      FileType type);

// First free slot, or nullopt when the block is full.
std::optional<uint32_t> DirBlockFreeSlot(const Bytes& block);

void DirBlockList(const Bytes& block, std::vector<DirEntry>* out);
bool DirBlockEmpty(const Bytes& block);

}  // namespace frangipani

#endif  // SRC_FS_DIR_H_
