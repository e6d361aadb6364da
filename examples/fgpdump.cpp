// fgpdump: offline inspection of a Frangipani virtual disk — the kind of
// admin/debug utility an operator reaches for before trusting a file system.
// Builds a demo cluster, runs a small workload (including a simulated crash
// so one log has unreplayed records), then dumps:
//   - the parameter block and geometry,
//   - allocation-bitmap segment usage,
//   - per-slot log occupancy (parsed records awaiting replay),
//   - the directory tree with inode details,
//   - a full fsck report.
//
//   $ ./examples/fgpdump
#include <cstdio>
#include <string>

#include "examples/check.h"
#include "src/fs/alloc.h"
#include "src/fs/dir.h"
#include "src/fs/fsck.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/wal.h"
#include "src/server/cluster.h"

using namespace frangipani;

namespace {

void DumpTree(BlockDevice* device, const Geometry& geo, uint64_t ino, const std::string& name,
              int depth) {
  Bytes raw;
  if (!device->Read(geo.InodeAddr(ino), kInodeSize, &raw).ok()) {
    return;
  }
  auto node = Inode::Decode(raw);
  if (!node.ok() || node->IsFree()) {
    std::printf("%*s%s  <missing inode %llu>\n", depth * 2, "", name.c_str(),
                static_cast<unsigned long long>(ino));
    return;
  }
  const char* type = node->type == FileType::kDirectory  ? "dir "
                     : node->type == FileType::kSymlink ? "link"
                                                        : "file";
  std::printf("%*s%-20s %s ino=%-4llu size=%-8llu nlink=%u v%llu", depth * 2, "",
              name.c_str(), type, static_cast<unsigned long long>(ino),
              static_cast<unsigned long long>(node->size), node->nlink,
              static_cast<unsigned long long>(node->version));
  if (node->type == FileType::kSymlink) {
    std::printf(" -> %s", node->symlink_target.c_str());
  }
  int blocks = 0;
  for (uint64_t b : node->small) {
    if (b != 0) {
      ++blocks;
    }
  }
  std::printf("  [%d small%s]\n", blocks, node->large != 0 ? " + large" : "");
  if (node->type != FileType::kDirectory) {
    return;
  }
  for (uint64_t off = 0; off < node->size; off += kBlockSize) {
    uint64_t b = off < kSmallBytesPerFile ? node->small[off / kBlockSize] : 0;
    uint64_t addr = 0;
    if (off < kSmallBytesPerFile) {
      if (b == 0) {
        continue;
      }
      addr = geo.SmallBlockAddr(b);
    } else if (node->large != 0) {
      addr = geo.LargeBlockAddr(node->large) + (off - kSmallBytesPerFile);
    } else {
      continue;
    }
    Bytes block;
    if (!device->Read(addr, kBlockSize, &block).ok() || !IsDirBlock(block)) {
      continue;
    }
    std::vector<DirEntry> entries;
    DirBlockList(block, &entries);
    for (const DirEntry& e : entries) {
      DumpTree(device, geo, e.ino, e.name, depth + 1);
    }
  }
}

}  // namespace

int main() {
  ClusterOptions options;
  options.petal_servers = 3;
  options.node.log_flush_period = Duration(20'000);
  Cluster cluster(options);
  if (!cluster.Start().ok()) {
    return 1;
  }
  auto a = cluster.AddFrangipani();
  auto b = cluster.AddFrangipani();
  if (!a.ok() || !b.ok()) {
    return 1;
  }
  // A small mixed workload...
  CHECK_OK(cluster.fs(0)->Mkdir("/src"));
  auto main_c = cluster.fs(0)->Create("/src/main.c");
  CHECK_OK(main_c);
  CHECK_OK(cluster.fs(0)->Write(*main_c, 0, Bytes(9000, 'x')));
  CHECK_OK(cluster.fs(1)->Mkdir("/docs"));
  CHECK_OK(cluster.fs(1)->Symlink("/src/main.c", "/docs/main-link"));
  auto big = cluster.fs(1)->Create("/docs/big.bin");
  CHECK_OK(big);
  CHECK_OK(cluster.fs(1)->Write(*big, 0, Bytes(100 * 1024, 7)));
  CHECK_OK(cluster.fs(0)->SyncAll());
  CHECK_OK(cluster.fs(1)->SyncAll());
  // ...then machine 1 crashes with a logged-but-unapplied create.
  CHECK_OK(cluster.fs(1)->Create("/docs/unflushed.txt"));
  CHECK_OK(cluster.fs(1)->FlushLog());
  uint32_t dead_slot = cluster.node(1)->slot();
  CHECK_OK(cluster.CrashFrangipani(1));

  PetalDevice device(cluster.admin_petal(), cluster.vdisk());

  // ---- parameter block ----
  Bytes params;
  CHECK_OK(device.Read(0, kBlockSize, &params));
  Decoder dec(params);
  uint32_t magic = dec.GetU32();
  Geometry geo = Geometry::Decode(dec);
  std::printf("=== parameter block ===\n");
  std::printf("magic: 0x%08X (%s)\n", magic, magic == kParamMagic ? "valid" : "INVALID");
  std::printf("logs: %u x %u KB @ 0x%llX | segments: %u @ 0x%llX | inodes @ 0x%llX\n",
              geo.num_logs, geo.log_bytes / 1024,
              static_cast<unsigned long long>(geo.log_base), geo.num_segments,
              static_cast<unsigned long long>(geo.bitmap_base),
              static_cast<unsigned long long>(geo.inode_base));
  std::printf("capacity: %llu inodes, %llu small blocks, %llu large blocks\n\n",
              static_cast<unsigned long long>(geo.MaxInodes()),
              static_cast<unsigned long long>(geo.MaxSmallBlocks()),
              static_cast<unsigned long long>(geo.MaxLargeBlocks()));

  // ---- allocation segments (only touched ones) ----
  std::printf("=== allocation segments in use ===\n");
  for (uint32_t seg = 0; seg < geo.num_segments; ++seg) {
    Bytes block;
    if (!device.Read(geo.SegmentAddr(seg), kBlockSize, &block).ok()) {
      continue;
    }
    int inodes = 0, smalls = 0, larges = 0;
    for (uint32_t i = 0; i < kInodesPerSegment; ++i) {
      inodes += SegBitGet(block, kSegInodeBitsOff + i);
    }
    for (uint32_t i = 0; i < kSmallsPerSegment; ++i) {
      smalls += SegBitGet(block, kSegSmallBitsOff + i);
    }
    for (uint32_t i = 0; i < kLargesPerSegment; ++i) {
      larges += SegBitGet(block, kSegLargeBitsOff + i);
    }
    if (inodes + smalls + larges > 0) {
      std::printf("segment %-6u v%-4llu  %3d inodes  %4d small  %2d large\n", seg,
                  static_cast<unsigned long long>(BlockVersionOf(BlockKind::kMeta4k, block)),
                  inodes, smalls, larges);
    }
  }

  // ---- logs ----
  std::printf("\n=== per-server logs ===\n");
  for (uint32_t slot = 0; slot < geo.num_logs; ++slot) {
    Bytes region;
    if (!device.Read(geo.LogAddr(slot), geo.log_bytes, &region).ok()) {
      continue;
    }
    auto records = ParseLogStream(region, geo.log_bytes / kLogSectorSize);
    if (records.empty()) {
      continue;
    }
    uint64_t updates = 0;
    for (const LogRecord& rec : records) {
      updates += rec.updates.size();
    }
    std::printf("log slot %-3u: %zu records, %llu block updates%s\n", slot, records.size(),
                static_cast<unsigned long long>(updates),
                slot == dead_slot ? "  <- CRASHED SERVER, awaiting recovery" : "");
  }

  // ---- tree ----
  std::printf("\n=== directory tree ===\n");
  DumpTree(&device, geo, kRootInode, "/", 0);

  // ---- fsck ----
  std::printf("\n=== fsck ===\n");
  FsckReport report = RunFsck(&device, geo);
  std::printf("%s\n", report.Summary().c_str());
  std::printf("(the unflushed create lives only in the crashed server's log; after\n"
              " recovery replays slot %u it will appear in the tree)\n", dead_slot);
  return 0;
}
