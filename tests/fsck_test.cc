// The consistency checker must catch each class of corruption it claims to
// detect. Each test builds a healthy file system, injects one specific
// defect directly on the virtual disk, and asserts fsck flags it.
#include <gtest/gtest.h>

#include "src/fs/alloc.h"
#include "src/fs/dir.h"
#include "src/fs/fsck.h"
#include "src/fs/inode.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.petal_servers = 3;
    opts.disks_per_petal = 1;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->Start().ok());
    auto node = cluster_->AddFrangipani();
    ASSERT_TRUE(node.ok());
    fs_ = (*node)->fs();
    device_ = std::make_unique<PetalDevice>(cluster_->admin_petal(), cluster_->vdisk());

    auto ino = fs_->Create("/file");
    ASSERT_TRUE(ino.ok());
    file_ino_ = *ino;
    ASSERT_TRUE(fs_->Write(file_ino_, 0, Bytes(10000, 0x5A)).ok());
    ASSERT_TRUE(fs_->Mkdir("/dir").ok());
    ASSERT_TRUE(fs_->SyncAll().ok());
  }

  const Geometry& geo() { return cluster_->geometry(); }

  StatusOr<Inode> LoadInode(uint64_t ino) {
    Bytes raw;
    RETURN_IF_ERROR(device_->Read(geo().InodeAddr(ino), kInodeSize, &raw));
    return Inode::Decode(raw);
  }

  Status StoreInode(uint64_t ino, const Inode& node) {
    return device_->Write(geo().InodeAddr(ino), node.Encode(), 0);
  }

  Status FlipSegmentBit(uint32_t seg, uint32_t bit, bool value) {
    Bytes block;
    RETURN_IF_ERROR(device_->Read(geo().SegmentAddr(seg), kBlockSize, &block));
    SegBitSet(block, bit, value);
    return device_->Write(geo().SegmentAddr(seg), block, 0);
  }

  std::unique_ptr<Cluster> cluster_;
  FrangipaniFs* fs_ = nullptr;
  std::unique_ptr<PetalDevice> device_;
  uint64_t file_ino_ = 0;
};

TEST_F(FsckTest, CleanBaseline) {
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, 1u);
  EXPECT_EQ(report.directories, 2u);  // root + /dir
}

TEST_F(FsckTest, DetectsOrphanInode) {
  // Allocate a bit for an inode nobody references.
  ASSERT_TRUE(FlipSegmentBit(0, InodeBit(100), true).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("unreachable"), std::string::npos) << report.Summary();
}

TEST_F(FsckTest, DetectsReachableButUnallocatedInode) {
  ASSERT_TRUE(FlipSegmentBit(SegmentOfInode(file_ino_), InodeBit(file_ino_), false).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("not allocated"), std::string::npos) << report.Summary();
}

TEST_F(FsckTest, DetectsLeakedSmallBlock) {
  auto node = LoadInode(file_ino_);
  ASSERT_TRUE(node.ok());
  uint64_t b = node->small[0];
  ASSERT_NE(b, 0u);
  // Drop the pointer but leave the block allocated in the bitmap.
  node->small[0] = 0;
  ASSERT_TRUE(StoreInode(file_ino_, *node).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("allocated but unreachable"), std::string::npos)
      << report.Summary();
}

TEST_F(FsckTest, DetectsDoubleReferencedBlock) {
  auto node = LoadInode(file_ino_);
  ASSERT_TRUE(node.ok());
  ASSERT_NE(node->small[0], 0u);
  node->small[3] = node->small[0];
  ASSERT_TRUE(StoreInode(file_ino_, *node).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("referenced"), std::string::npos) << report.Summary();
}

TEST_F(FsckTest, DetectsDanglingDirectoryEntry) {
  // Point /file's entry at a free inode number.
  auto root = LoadInode(kRootInode);
  ASSERT_TRUE(root.ok());
  uint64_t block_addr = geo().SmallBlockAddr(root->small[0]);
  Bytes block;
  ASSERT_TRUE(device_->Read(block_addr, kBlockSize, &block).ok());
  auto hit = DirBlockFind(block, "file");
  ASSERT_TRUE(hit.has_value());
  DirBlockSetEntry(block, hit->slot, "file", 7777, FileType::kRegular);
  ASSERT_TRUE(device_->Write(block_addr, block, 0).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
}

TEST_F(FsckTest, DetectsWrongLinkCount) {
  auto node = LoadInode(file_ino_);
  ASSERT_TRUE(node.ok());
  node->nlink = 3;  // only one directory entry references it
  ASSERT_TRUE(StoreInode(file_ino_, *node).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("nlink"), std::string::npos) << report.Summary();
}

TEST_F(FsckTest, HardLinksSatisfyLinkCount) {
  ASSERT_TRUE(fs_->Link("/file", "/alias").ok());
  ASSERT_TRUE(fs_->SyncAll().ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST_F(FsckTest, DetectsSizeWithoutLargeBlock) {
  auto node = LoadInode(file_ino_);
  ASSERT_TRUE(node.ok());
  node->size = kSmallBytesPerFile + 5000;  // claims large-block data
  node->large = 0;
  ASSERT_TRUE(StoreInode(file_ino_, *node).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Summary().find("no large block"), std::string::npos) << report.Summary();
}

// An unlink whose decommit has not finished leaves the large block
// allocated and unreachable, with a pending-decommit extent in its segment.
// fsck accepts and counts that; without the extent it is still a leak.
TEST_F(FsckTest, AcceptsLargeBlockPendingDecommitButNotAnUnmarkedLeak) {
  const uint64_t large = LargeOfSeg(0, 5);
  ASSERT_TRUE(FlipSegmentBit(0, LargeBit(large), true).ok());
  FsckReport leak = RunFsck(device_.get(), geo());
  EXPECT_FALSE(leak.ok);
  EXPECT_NE(leak.Summary().find("allocated but unreachable"), std::string::npos)
      << leak.Summary();

  Bytes block;
  ASSERT_TRUE(device_->Read(geo().SegmentAddr(0), kBlockSize, &block).ok());
  SegPendingSet(block, LargeLocal(large), 31);
  ASSERT_TRUE(device_->Write(geo().SegmentAddr(0), block, 0).ok());
  FsckReport report = RunFsck(device_.get(), geo());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.large_blocks_pending_decommit, 1u);
  EXPECT_NE(report.Summary().find("1 pending decommit"), std::string::npos) << report.Summary();

  // An extent on a block the bitmap calls free is corruption.
  ASSERT_TRUE(FlipSegmentBit(0, LargeBit(large), false).ok());
  FsckReport stray = RunFsck(device_.get(), geo());
  EXPECT_FALSE(stray.ok);
  EXPECT_NE(stray.Summary().find("pending decommit but not allocated"), std::string::npos)
      << stray.Summary();
}

}  // namespace
}  // namespace frangipani
