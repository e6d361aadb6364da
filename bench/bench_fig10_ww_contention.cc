// Figure 10: write/write sharing. N machines write concurrently, either all
// to the same file (whole-file lock ping-pong: every handoff flushes dirty
// data) or each to a private file (no contention). The gap quantifies the
// cost of Frangipani's coarse-grained, per-file locks under write sharing
// (§2.3: "other workloads may require finer granularity locking").
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/harness.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

constexpr uint64_t kChunkBytes = 64 * 1024;
constexpr double kWindowSeconds = 4.0;

// One measured configuration. A failed setup step, write or fsync counts in
// `failed`; a row with any failure is not reported.
struct Result {
  double mbs = 0;
  int failed = 0;
};

Result RunWriters(int writers, bool same_file) {
  Result failed_setup{0, 1};
  ClusterOptions opts = PaperClusterOptions(/*nvram=*/true);
  // Whole-file lock handoffs under contention run tens of ms: capture them.
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
  std::vector<uint64_t> inos(writers);
  for (int m = 0; m < writers; ++m) {
    if (same_file && m > 0) {
      inos[m] = inos[0];
      continue;
    }
    auto ino = cluster.fs(m)->Create(same_file ? "/shared" : "/private" + std::to_string(m));
    if (!ino.ok()) {
      return failed_setup;
    }
    inos[m] = *ino;
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int m = 0; m < writers; ++m) {
    threads.emplace_back([&, m] {
      Bytes unit(kChunkBytes, static_cast<uint8_t>(m));
      uint64_t off = 0;
      int in_flight = 0;
      while (!stop.load()) {
        if (cluster.fs(m)->Write(inos[m], off, unit).ok()) {
          bytes_written.fetch_add(unit.size());
        } else {
          ++failed;
        }
        off = (off + unit.size()) % (8 * kChunkBytes);
        // Steady-state write-out: flush each lap of the file so throughput
        // reflects Petal writes, not buffer-cache acceptance.
        if (++in_flight == 8) {
          failed += !cluster.fs(m)->Fsync(inos[m]).ok();
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
  if (writers == 2 && same_file) {
    // Pin the interesting window before later configs overwrite the rings:
    // this trace shows the revoke -> flush -> release -> grant handoff chain
    // between the two nodes (load it in Perfetto; see EXPERIMENTS.md).
    WriteTraceJson("fig10_ww_contention");
  }
  return {bytes_written.load() / kWindowSeconds / (1 << 20), failed.load()};
}

}  // namespace

int main() {
  StartTimeSeries(Duration(250'000));  // 250 ms windows -> .timeseries.csv sidecar
  std::printf("Figure 10: write/write sharing (aggregate write MB/s)\n\n");
  std::printf("writers   same file   private files   failed ops\n");
  std::vector<std::string> rows;
  int failed_rows = 0;
  for (int writers : {1, 2, 3, 4}) {
    Result same = RunWriters(writers, true);
    Result priv = RunWriters(writers, false);
    int failed = same.failed + priv.failed;
    std::printf("   %d       %7.2f      %7.2f         %d\n", writers, same.mbs, priv.mbs, failed);
    failed_rows += failed > 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.3f,%.3f", writers, same.mbs, priv.mbs);
    rows.push_back(buf);
  }
  std::printf("\npaper: whole-file locking makes write-sharing expensive (every lock\n"
              "handoff flushes the dirty file) while private files scale\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "%d rows had failed ops: not reporting them\n", failed_rows);
    return 1;
  }
  WriteCsv("fig10_ww_contention", "writers,same_file_mbs,private_files_mbs", rows);
  return 0;
}
