// Many threads per mount (the paper's kernel file system served many
// processes per machine). N nodes x T threads per mount each run
// create / write 1 KB / stat / unlink cycles in a private directory; every
// op must succeed and fsck must be clean afterwards. Regression test for
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
          std::string path = dir_of(m, t) + "/f" + std::to_string(i);
          auto ino = fs->Create(path);
          if (!ino.ok()) {
            fail("create " + path, ino.status());
            continue;
          }
          if (Status st = fs->Write(*ino, 0, payload); !st.ok()) {
            fail("write " + path, st);
          }
          if (auto attr = fs->Stat(path); !attr.ok()) {
            fail("stat " + path, attr.status());
          }
          if (Status st = fs->Unlink(path); !st.ok()) {
            fail("unlink " + path, st);
          }
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
