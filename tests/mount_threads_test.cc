// Many threads per mount (the paper's kernel file system served many
// processes per machine). N nodes x T threads per mount each run cycles of
// create / write 1 KB / stat / mkdir / symlink / link / rename / unlink /
// rmdir in a private directory, so the shared create transaction and the
// two-phase retry loop run with many threads per mount; every op must
// succeed and fsck must be clean afterwards. Regression test for
// clerk locks that were not exclusive between the threads of one mount:
// two threads both "held" an exclusive lock, both committed whole-block
// images, and the last writer won (fsck: block without directory magic).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/fs/fsck.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

struct Shape {
  int nodes;
  int threads;
};

class MountThreadsTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MountThreadsTest, CycleOpsSucceedAndFsckIsClean) {
  constexpr int kCycles = 25;
  const Shape shape = GetParam();
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  for (int m = 0; m < shape.nodes; ++m) {
    ASSERT_TRUE(cluster.AddFrangipani().ok());
  }
  auto dir_of = [](int m, int t) { return "/n" + std::to_string(m) + "_t" + std::to_string(t); };
  for (int m = 0; m < shape.nodes; ++m) {
    for (int t = 0; t < shape.threads; ++t) {
      ASSERT_TRUE(cluster.fs(m)->Mkdir(dir_of(m, t)).ok());
    }
  }

  std::atomic<int> failed{0};
  std::mutex first_mu;
  std::string first_failure;
  auto fail = [&](const std::string& what, const Status& st) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> guard(first_mu);
    if (first_failure.empty()) {
      first_failure = what + ": " + st.ToString();
    }
  };
  std::vector<std::thread> threads;
  for (int m = 0; m < shape.nodes; ++m) {
    for (int t = 0; t < shape.threads; ++t) {
      threads.emplace_back([&, m, t] {
        FrangipaniFs* fs = cluster.fs(m);
        Bytes payload(1024, static_cast<uint8_t>(m * 16 + t));
        for (int i = 0; i < kCycles; ++i) {
          const std::string dir = dir_of(m, t);
          const std::string path = dir + "/f" + std::to_string(i);
          const std::string sub = dir + "/s" + std::to_string(i);
          const std::string moved = dir + "/g" + std::to_string(i);
          auto check = [&](const std::string& what, const Status& st) {
            if (!st.ok()) {
              fail(what, st);
            }
          };
          auto ino = fs->Create(path);
          if (!ino.ok()) {
            fail("create " + path, ino.status());
            continue;
          }
          check("write " + path, fs->Write(*ino, 0, payload));
          check("stat " + path, fs->Stat(path).status());
          check("mkdir " + sub, fs->Mkdir(sub));
          check("symlink " + sub + "/l", fs->Symlink(path, sub + "/l"));
          check("link " + sub + "/h", fs->Link(path, sub + "/h"));
          check("rename " + sub + "/h", fs->Rename(sub + "/h", moved));
          if (auto via = fs->Lookup(sub + "/l"); !via.ok() || *via != *ino) {
            fail("lookup " + sub + "/l", via.ok() ? Internal("wrong inode") : via.status());
          }
          check("unlink " + sub + "/l", fs->Unlink(sub + "/l"));
          check("unlink " + path, fs->Unlink(path));
          check("unlink " + moved, fs->Unlink(moved));
          check("rmdir " + sub, fs->Rmdir(sub));
        }
      });
    }
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failed.load(), 0) << "first failure: " << first_failure;
  for (int m = 0; m < shape.nodes; ++m) {
    ASSERT_TRUE(cluster.fs(m)->SyncAll().ok());
  }
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Shapes, MountThreadsTest,
                         ::testing::Values(Shape{1, 2}, Shape{2, 2}, Shape{1, 4}, Shape{4, 4}),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return std::to_string(info.param.nodes) + "x" +
                                  std::to_string(info.param.threads);
                         });

}  // namespace
}  // namespace frangipani
