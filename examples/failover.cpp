// Failure recovery demo (§4, §6, §7): a Frangipani server crashes mid-
// workload; the lock service detects the expired lease, a surviving server
// replays the dead server's log, and the cluster continues — then the
// crashed machine comes back and simply remounts.
//
//   $ ./examples/failover
#include <cstdio>
#include <thread>

#include "examples/check.h"
#include "src/fs/fsck.h"
#include "src/server/cluster.h"

using namespace frangipani;

int main() {
  ClusterOptions options;
  options.petal_servers = 3;
  options.lease_duration = Duration(500'000);  // 0.5 s lease, scaled from 30 s
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

  std::printf("server A (log slot %u) creating files...\n", (*a)->slot());
  for (int i = 0; i < 20; ++i) {
    auto ino = cluster.fs(0)->Create("/doc" + std::to_string(i));
    CHECK_OK(ino);
    CHECK_OK(cluster.fs(0)->Write(*ino, 0, Bytes(2048, static_cast<uint8_t>(i))));
  }
  // Let the log demon push the records to Petal; the metadata blocks
  // themselves are still dirty in A's cache.
  CHECK_OK(cluster.fs(0)->FlushLog());

  std::printf("crashing server A (no clean shutdown, dirty cache lost)...\n");
  CHECK_OK(cluster.CrashFrangipani(0));

  std::printf("waiting for A's lease to expire...\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  std::printf("server B lists the root (this forces recovery of A's log):\n");
  auto entries = cluster.fs(1)->Readdir("/");
  if (!entries.ok()) {
    std::fprintf(stderr, "readdir failed: %s\n", entries.status().ToString().c_str());
    return 1;
  }
  std::printf("  %zu files survived A's crash\n", entries->size());
  for (int i = 0; i < 3; ++i) {
    auto ino = cluster.fs(1)->Lookup("/doc" + std::to_string(i));
    CHECK_OK(ino);
    Bytes back;
    CHECK_OK(cluster.fs(1)->Read(*ino, 0, 4, &back));
    std::printf("  /doc%d first byte = %d\n", i, back.empty() ? -1 : back[0]);
  }

  std::printf("restarting machine A: it remounts with a fresh log slot...\n");
  if (!cluster.RestartFrangipani(0).ok()) {
    return 1;
  }
  std::printf("  A remounted as slot %u; it can see and extend the namespace\n",
              cluster.node(0)->slot());
  CHECK_OK(cluster.fs(0)->Create("/doc-after-restart"));

  CHECK_OK(cluster.fs(0)->SyncAll());
  CHECK_OK(cluster.fs(1)->SyncAll());
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  std::printf("final fsck: %s\n", report.Summary().c_str());
  return report.ok ? 0 : 1;
}
