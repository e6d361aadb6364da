#include "src/fs/fsck.h"

#include <deque>
#include <map>
#include <set>
#include <sstream>

#include "src/fs/alloc.h"
#include "src/fs/dir.h"
#include "src/fs/inode.h"

namespace frangipani {

namespace {

struct Walker {
  BlockDevice* device;
  const Geometry* geo;
  FsckReport* report;
  std::set<uint64_t> seen_inodes;
  std::map<uint64_t, int> small_refs;
  std::map<uint64_t, int> large_refs;

  void Problem(const std::string& p) {
    report->ok = false;
    report->problems.push_back(p);
  }

  StatusOr<Inode> LoadInode(uint64_t ino) {
    Bytes raw;
    RETURN_IF_ERROR(device->Read(geo->InodeAddr(ino), kInodeSize, &raw));
    return Inode::Decode(raw);
  }

  void WalkDir(uint64_t ino, const Inode& dir, std::deque<std::pair<uint64_t, uint32_t>>* queue) {
    for (uint64_t off = 0; off < dir.size; off += kBlockSize) {
      uint64_t addr = 0;
      if (off < kSmallBytesPerFile) {
        uint64_t b = dir.small[off / kBlockSize];
        if (b == 0) {
          continue;
        }
        addr = geo->SmallBlockAddr(b);
      } else {
        if (dir.large == 0) {
          Problem("dir " + std::to_string(ino) + " size extends past missing large block");
          break;
        }
        addr = geo->LargeBlockAddr(dir.large) + (off - kSmallBytesPerFile);
      }
      Bytes block;
      if (!device->Read(addr, kBlockSize, &block).ok()) {
        Problem("dir " + std::to_string(ino) + ": unreadable block");
        continue;
      }
      if (!IsDirBlock(block)) {
        Problem("dir " + std::to_string(ino) + ": block without directory magic at offset " +
                std::to_string(off));
        continue;
      }
      std::vector<DirEntry> entries;
      DirBlockList(block, &entries);
      for (const DirEntry& e : entries) {
        if (e.ino >= geo->MaxInodes()) {
          Problem("dir " + std::to_string(ino) + ": entry '" + e.name + "' -> bad inode " +
                  std::to_string(e.ino));
          continue;
        }
        queue->emplace_back(e.ino, static_cast<uint32_t>(e.type));
      }
    }
  }
};

}  // namespace

std::string FsckReport::Summary() const {
  std::ostringstream os;
  os << (ok ? "CLEAN" : "CORRUPT") << ": " << inodes_reachable << " inodes ("
     << directories << " dirs, " << files << " files, " << symlinks << " symlinks), "
     << small_blocks_reachable << " small blocks, " << large_blocks_reachable
     << " large blocks";
  if (large_blocks_pending_decommit > 0) {
    os << ", " << large_blocks_pending_decommit << " pending decommit";
  }
  if (!problems.empty()) {
    os << "; " << problems.size() << " problem(s), first: " << problems.front();
  }
  return os.str();
}

FsckReport RunFsck(BlockDevice* device, const Geometry& geometry) {
  FsckReport report;
  Walker w{device, &geometry, &report, {}, {}, {}};

  // Pass 1: walk the namespace from the root.
  std::deque<std::pair<uint64_t, uint32_t>> queue;
  queue.emplace_back(kRootInode, static_cast<uint32_t>(FileType::kDirectory));
  std::map<uint64_t, uint32_t> link_counts;   // directory references seen
  std::map<uint64_t, uint32_t> nlink_claims;  // what each inode claims
  while (!queue.empty()) {
    auto [ino, expected_type] = queue.front();
    queue.pop_front();
    link_counts[ino]++;
    if (w.seen_inodes.count(ino) > 0) {
      continue;
    }
    w.seen_inodes.insert(ino);
    StatusOr<Inode> node_or = w.LoadInode(ino);
    if (!node_or.ok()) {
      w.Problem("inode " + std::to_string(ino) + ": " + node_or.status().ToString());
      continue;
    }
    const Inode& node = *node_or;
    if (node.IsFree()) {
      w.Problem("inode " + std::to_string(ino) + " referenced but free");
      continue;
    }
    if (static_cast<uint32_t>(node.type) != expected_type) {
      w.Problem("inode " + std::to_string(ino) + " type mismatch with directory entry");
    }
    report.inodes_reachable++;
    nlink_claims[ino] = node.nlink;
    switch (node.type) {
      case FileType::kDirectory:
        report.directories++;
        break;
      case FileType::kRegular:
        report.files++;
        break;
      case FileType::kSymlink:
        report.symlinks++;
        break;
      default:
        break;
    }
    uint64_t covered = 0;
    for (uint64_t b : node.small) {
      if (b == 0) {
        continue;
      }
      if (b > geometry.MaxSmallBlocks()) {
        w.Problem("inode " + std::to_string(ino) + ": bad small block " + std::to_string(b));
        continue;
      }
      w.small_refs[b]++;
      report.small_blocks_reachable++;
      covered += kBlockSize;
    }
    if (node.large != 0) {
      if (node.large > geometry.MaxLargeBlocks()) {
        w.Problem("inode " + std::to_string(ino) + ": bad large block");
      } else {
        w.large_refs[node.large]++;
        report.large_blocks_reachable++;
      }
    }
    if (node.type != FileType::kSymlink && node.size > kSmallBytesPerFile &&
        node.large == 0) {
      w.Problem("inode " + std::to_string(ino) + ": size " + std::to_string(node.size) +
                " but no large block");
    }
    (void)covered;
    if (node.type == FileType::kDirectory) {
      w.WalkDir(ino, node, &queue);
    }
  }

  // Pass 1b: link counts must match the number of directory references.
  for (const auto& [ino, claimed] : nlink_claims) {
    uint32_t seen = link_counts[ino];
    if (claimed != seen) {
      w.Problem("inode " + std::to_string(ino) + " nlink " + std::to_string(claimed) +
                " but " + std::to_string(seen) + " directory references");
    }
  }

  // Pass 1c: double references.
  for (const auto& [b, refs] : w.small_refs) {
    if (refs > 1) {
      w.Problem("small block " + std::to_string(b) + " referenced " + std::to_string(refs) +
                " times");
    }
  }
  for (const auto& [l, refs] : w.large_refs) {
    if (refs > 1) {
      w.Problem("large block " + std::to_string(l) + " referenced " + std::to_string(refs) +
                " times");
    }
  }

  // Pass 2: cross-check the allocation bitmaps (only segments that exist on
  // disk; untouched segments are all-free).
  for (uint32_t seg = 0; seg < geometry.num_segments; ++seg) {
    Bytes block;
    if (!device->Read(geometry.SegmentAddr(seg), kBlockSize, &block).ok()) {
      continue;
    }
    bool any = false;
    for (const uint8_t byte : block) {
      if (byte != 0) {
        any = true;
        break;
      }
    }
    if (!any) {
      continue;
    }
    for (uint32_t i = 0; i < kInodesPerSegment; ++i) {
      uint64_t ino = InodeOfSeg(seg, i);
      bool allocated = SegBitGet(block, kSegInodeBitsOff + i);
      if (allocated) {
        report.inodes_allocated++;
      }
      if (ino == 0) {
        continue;  // reserved
      }
      bool reachable = w.seen_inodes.count(ino) > 0;
      if (allocated && !reachable) {
        w.Problem("inode " + std::to_string(ino) + " allocated but unreachable (leak)");
      } else if (!allocated && reachable) {
        w.Problem("inode " + std::to_string(ino) + " reachable but not allocated");
      }
    }
    for (uint32_t i = 0; i < kSmallsPerSegment; ++i) {
      uint64_t b = SmallOfSeg(seg, i);
      bool allocated = SegBitGet(block, kSegSmallBitsOff + i);
      if (allocated) {
        report.small_blocks_allocated++;
      }
      bool reachable = w.small_refs.count(b) > 0;
      if (allocated && !reachable) {
        w.Problem("small block " + std::to_string(b) + " allocated but unreachable");
      } else if (!allocated && reachable) {
        w.Problem("small block " + std::to_string(b) + " in use but not allocated");
      }
    }
    for (uint32_t i = 0; i < kLargesPerSegment; ++i) {
      uint64_t l = LargeOfSeg(seg, i);
      bool allocated = SegBitGet(block, kSegLargeBitsOff + i);
      if (allocated) {
        report.large_blocks_allocated++;
      }
      bool reachable = w.large_refs.count(l) > 0;
      bool pending = SegPendingGet(block, i) != 0;
      if (pending && allocated && !reachable) {
        report.large_blocks_pending_decommit++;
      } else if (pending) {
        w.Problem("large block " + std::to_string(l) + " pending decommit but " +
                  (allocated ? "reachable" : "not allocated"));
      } else if (allocated && !reachable) {
        w.Problem("large block " + std::to_string(l) + " allocated but unreachable");
      } else if (!allocated && reachable) {
        w.Problem("large block " + std::to_string(l) + " in use but not allocated");
      }
    }
  }
  return report;
}

}  // namespace frangipani
