// Offline metadata consistency checker ("a metadata consistency check and
// repair tool (like Unix fsck) would be needed" — §4; the paper's authors
// had not built one, but our tests rely on it to validate crash recovery).
//
// Runs against a quiesced device (or a read-only snapshot): walks the tree
// from the root, then cross-checks reachability against the allocation
// bitmaps. Detects: unreachable allocated inodes/blocks (leaks), reachable
// but unallocated objects (corruption), double-referenced blocks, bad
// directory structure, size/block mismatches, and bad link counts. A large
// block that is allocated, unreachable and carries a pending-decommit
// extent is a free still in progress (a crash or an unmount of a poisoned
// mount can leave one): it is counted, not reported.
#ifndef SRC_FS_FSCK_H_
#define SRC_FS_FSCK_H_

#include <string>
#include <vector>

#include "src/fs/device.h"
#include "src/fs/layout.h"

namespace frangipani {

struct FsckReport {
  bool ok = true;
  std::vector<std::string> problems;
  uint64_t inodes_reachable = 0;
  uint64_t inodes_allocated = 0;
  uint64_t small_blocks_reachable = 0;
  uint64_t small_blocks_allocated = 0;
  uint64_t large_blocks_reachable = 0;
  uint64_t large_blocks_allocated = 0;
  uint64_t large_blocks_pending_decommit = 0;
  uint64_t directories = 0;
  uint64_t files = 0;
  uint64_t symlinks = 0;

  std::string Summary() const;
};

FsckReport RunFsck(BlockDevice* device, const Geometry& geometry);

}  // namespace frangipani

#endif  // SRC_FS_FSCK_H_
