// Figure 10 (extent-lock follow-up): write sharing within ONE file. N
// machines write concurrently to the same file, either each to its own
// disjoint 1 MB region (byte-range locks let the extents coexist: no lock
// ping-pong, no revoke flushes) or all to the same region (extent handoffs —
// the old whole-file plateau reappears as a per-extent plateau). The gap is
// what Lustre-style extent locking buys over §2.3's per-file locks.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "src/obs/metrics.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

constexpr uint64_t kChunkBytes = 64 * 1024;
constexpr uint64_t kRegionBytes = 1 << 20;  // each writer owns 1 MB
constexpr double kWindowSeconds = 4.0;

// One measured configuration. A failed setup step, write or fsync counts in
// `failed`; a row with any failure is not reported.
struct Result {
  double mbs = 0;
  int failed = 0;
};

Result RunWriters(int writers, bool disjoint) {
  Result failed_setup{0, 1};
  ClusterOptions opts = PaperClusterOptions(/*nvram=*/true);
  // Extent handoffs under same-region contention run tens of ms: capture them.
  opts.slow_op_us = 10'000;
  Cluster cluster(opts);
  if (!cluster.Start().ok()) {
    return failed_setup;
  }
  for (int m = 0; m < writers; ++m) {
    if (!cluster.AddFrangipani().ok()) {
      return failed_setup;
    }
  }
  auto ino = cluster.fs(0)->Create("/shared");
  if (!ino.ok()) {
    return failed_setup;
  }
  // Pre-size the file so every region write is a pure overwrite: extension
  // needs the exclusive inode (metadata) lock, which would serialize the
  // writers on metadata rather than data and hide what extents buy.
  uint64_t file_bytes = static_cast<uint64_t>(writers) * kRegionBytes;
  for (uint64_t off = 0; off < file_bytes; off += kChunkBytes) {
    if (!cluster.fs(0)->Write(*ino, off, Bytes(kChunkBytes, 0)).ok()) {
      return failed_setup;
    }
  }
  if (!cluster.fs(0)->Fsync(*ino).ok()) {
    return failed_setup;
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int m = 0; m < writers; ++m) {
    threads.emplace_back([&, m] {
      Bytes unit(kChunkBytes, static_cast<uint8_t>(m + 1));
      // Disjoint: each writer laps its own 1 MB region. Same-region control:
      // everyone laps region 0 and the extents collide on every write.
      uint64_t base = disjoint ? static_cast<uint64_t>(m) * kRegionBytes : 0;
      uint64_t off = 0;
      int in_flight = 0;
      while (!stop.load()) {
        if (cluster.fs(m)->Write(*ino, base + off, unit).ok()) {
          bytes_written.fetch_add(unit.size());
        } else {
          ++failed;
        }
        off = (off + unit.size()) % kRegionBytes;
        // Steady-state write-out: flush each lap of the region so throughput
        // reflects Petal writes, not buffer-cache acceptance.
        if (++in_flight == static_cast<int>(kRegionBytes / kChunkBytes)) {
          failed += !cluster.fs(m)->Fsync(*ino).ok();
          in_flight = 0;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWindowSeconds));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  if (writers == 4 && disjoint) {
    // Pin the interesting window: 4 writers inside one file with zero
    // revoke traffic after the initial extent trims (load in Perfetto).
    WriteTraceJson("fig10_disjoint");
  }
  return {bytes_written.load() / kWindowSeconds / (1 << 20), failed.load()};
}

}  // namespace

int main() {
  StartTimeSeries(Duration(250'000));  // 250 ms windows -> .timeseries.csv sidecar
  std::printf("Figure 10 follow-up: extent locks, one shared file (aggregate write MB/s)\n\n");
  std::printf("writers   disjoint 1MB regions   same region   failed ops\n");
  std::vector<std::string> rows;
  int failed_rows = 0;
  for (int writers : {1, 2, 3, 4}) {
    Result disjoint = RunWriters(writers, true);
    Result same = RunWriters(writers, false);
    int failed = disjoint.failed + same.failed;
    std::printf("   %d            %7.2f           %7.2f       %d\n", writers, disjoint.mbs,
                same.mbs, failed);
    failed_rows += failed > 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.3f,%.3f", writers, disjoint.mbs, same.mbs);
    rows.push_back(buf);
  }
  std::printf("\nbyte-range locks: disjoint writers inside one file scale like private\n"
              "files (extents never collide); same-region writers still pay the\n"
              "flush-per-handoff plateau, now per extent instead of per file\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "%d rows had failed ops: not reporting them\n", failed_rows);
    return 1;
  }
  WriteCsv("fig10_disjoint", "writers,disjoint_mbs,same_region_mbs", rows);
  return 0;
}
