// Scaling demo (§1, §7): servers are "bricks that can be stacked
// incrementally to build as large a file system as needed". Starts with one
// Frangipani machine, adds more while a workload runs, and shows aggregate
// throughput rising — with the full timing models enabled (17 MB/s links,
// 9 ms / 6 MB/s disks, as in the paper's testbed).
//
//   $ ./examples/scaling_demo
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "examples/check.h"
#include "src/server/cluster.h"

using namespace frangipani;

namespace {

// Sequentially streams a private large file once; returns bytes read.
uint64_t StreamOnce(FrangipaniFs* fs, uint64_t ino, uint64_t file_bytes) {
  uint64_t total = 0;
  Bytes buf;
  for (uint64_t pos = 0; pos < file_bytes;) {
    auto n = fs->Read(ino, pos, 64 * 1024, &buf);
    CHECK_OK(n);
    if (*n == 0) {
      break;
    }
    total += *n;
    pos += *n;
  }
  return total;
}

}  // namespace

int main() {
  ClusterOptions options;
  options.petal_servers = 4;
  options.disks_per_petal = 4;
  options.enable_timing = true;
  options.nvram = true;
  options.link = LinkParams{Duration(200), 17.0 * (1 << 20)};  // ~155 Mbit/s ATM
  Cluster cluster(options);
  if (!cluster.Start().ok()) {
    return 1;
  }

  constexpr uint64_t kFileBytes = 2 << 20;  // 2 MB per machine
  std::printf("machines  aggregate read MB/s\n");
  for (int machines = 1; machines <= 4; ++machines) {
    auto node = cluster.AddFrangipani();
    if (!node.ok()) {
      return 1;
    }
    // Each machine gets its own large file.
    size_t idx = cluster.frangipani_count() - 1;
    auto ino = cluster.fs(idx)->Create("/stream" + std::to_string(idx));
    CHECK_OK(ino);
    Bytes chunk(64 * 1024, static_cast<uint8_t>(idx));
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      CHECK_OK(cluster.fs(idx)->Write(*ino, off, chunk));
    }
    CHECK_OK(cluster.fs(idx)->SyncAll());

    // Uncached read: every machine invalidates its buffer cache (as the
    // paper does), then all stream their files concurrently.
    for (size_t m = 0; m < cluster.frangipani_count(); ++m) {
      CHECK_OK(cluster.fs(m)->DropCaches());
    }
    std::vector<std::thread> readers;
    std::vector<uint64_t> bytes(cluster.frangipani_count());
    auto t0 = std::chrono::steady_clock::now();
    for (size_t m = 0; m < cluster.frangipani_count(); ++m) {
      readers.emplace_back([&, m] {
        auto mine = cluster.fs(m)->Lookup("/stream" + std::to_string(m));
        CHECK_OK(mine);
        bytes[m] = StreamOnce(cluster.fs(m), *mine, kFileBytes);
      });
    }
    for (auto& t : readers) {
      t.join();
    }
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    uint64_t total = 0;
    for (uint64_t b : bytes) {
      total += b;
    }
    std::printf("   %d        %6.1f\n", machines, total / secs / (1 << 20));
  }
  std::printf("\n(near-linear growth: each machine saturates its own link, as in Figure 6)\n");
  return 0;
}
