// Multi-machine model check: a single reference model, but each operation
// executes on a randomly chosen machine. Because the operations are issued
// serially, the file system must behave like one coherent store no matter
// which machine serves which op — this exercises the §5 coherence protocol
// (revocations, downgrades, invalidations) on every transition.
#include <gtest/gtest.h>

#include <map>

#include "src/base/rng.h"
#include "src/fs/fsck.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class MultiMachineModelTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiMachineModelTest, SerializedOpsOnRandomMachinesAgreeWithModel) {
  ClusterOptions copts;
  copts.petal_servers = 3;
  copts.disks_per_petal = 1;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kMachines = 3;
  for (int i = 0; i < kMachines; ++i) {
    ASSERT_TRUE(cluster.AddFrangipani().ok());
  }

  Rng rng(GetParam() * 48611 + 101);
  std::map<std::string, Bytes> files;  // path -> content

  auto random_fs = [&]() { return cluster.fs(rng.Below(kMachines)); };

  for (int step = 0; step < 120; ++step) {
    FrangipaniFs* fs = random_fs();
    uint64_t op = rng.Below(10);
    if (op < 3) {  // create
      std::string path = "/m" + std::to_string(rng.Below(25));
      auto result = fs->Create(path);
      EXPECT_EQ(result.ok(), files.count(path) == 0) << path << " step " << step;
      if (result.ok()) {
        files[path] = {};
      }
    } else if (op < 5) {  // write on one machine
      if (files.empty()) {
        continue;
      }
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      auto ino = fs->Lookup(it->first);
      ASSERT_TRUE(ino.ok()) << it->first << " step " << step;
      uint64_t off = rng.Below(2) * 2000;
      Bytes data(1 + rng.Below(5000), static_cast<uint8_t>(step));
      ASSERT_TRUE(fs->Write(*ino, off, data).ok());
      Bytes& content = it->second;
      if (content.size() < off + data.size()) {
        content.resize(off + data.size(), 0);
      }
      std::copy(data.begin(), data.end(), content.begin() + off);
    } else if (op == 5) {  // read on a DIFFERENT random machine
      if (files.empty()) {
        continue;
      }
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      FrangipaniFs* reader = random_fs();
      auto ino = reader->Lookup(it->first);
      ASSERT_TRUE(ino.ok());
      Bytes back;
      ASSERT_TRUE(reader->Read(*ino, 0, it->second.size() + 10, &back).ok());
      EXPECT_EQ(back, it->second) << it->first << " step " << step;
    } else if (op == 6) {  // unlink
      if (files.empty()) {
        continue;
      }
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      EXPECT_TRUE(fs->Unlink(it->first).ok()) << it->first;
      files.erase(it);
    } else if (op == 8) {  // rename, possibly over an existing file
      if (files.empty()) {
        continue;
      }
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      std::string from = it->first;
      std::string to = "/m" + std::to_string(rng.Below(25));
      ASSERT_TRUE(fs->Rename(from, to).ok()) << from << " -> " << to << " step " << step;
      if (to != from) {
        files[to] = std::move(it->second);
        files.erase(from);
      }
    } else if (op == 9) {  // unlink by name, which may be absent
      // Another machine may have removed or renamed the name since this
      // one created or looked it up: its name hint must not fool it.
      std::string path = "/m" + std::to_string(rng.Below(25));
      Status st = fs->Unlink(path);
      if (files.count(path) > 0) {
        EXPECT_TRUE(st.ok()) << path << " step " << step << ": " << st;
        files.erase(path);
      } else {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << path << " step " << step << ": " << st;
      }
    } else {  // stat everywhere must agree
      if (files.empty()) {
        continue;
      }
      auto it = files.begin();
      std::advance(it, rng.Below(files.size()));
      for (int m = 0; m < kMachines; ++m) {
        auto attr = cluster.fs(m)->Stat(it->first);
        ASSERT_TRUE(attr.ok()) << it->first << " on machine " << m;
        EXPECT_EQ(attr->size, it->second.size()) << it->first << " on machine " << m;
      }
    }
  }

  // Final agreement from every machine.
  for (const auto& [path, content] : files) {
    for (int m = 0; m < kMachines; ++m) {
      auto ino = cluster.fs(m)->Lookup(path);
      ASSERT_TRUE(ino.ok()) << path;
      Bytes back;
      ASSERT_TRUE(cluster.fs(m)->Read(*ino, 0, content.size() + 1, &back).ok());
      EXPECT_EQ(back, content) << path << " machine " << m;
    }
  }
  for (int m = 0; m < kMachines; ++m) {
    ASSERT_TRUE(cluster.fs(m)->SyncAll().ok());
  }
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.files, files.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiMachineModelTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace frangipani
