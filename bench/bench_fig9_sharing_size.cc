// Figure 9: effect of shared-data size on reader/writer contention.
// Read-ahead is disabled; the writer repeatedly rewrites only the first
// 8/16/64 KB of the shared file. Because Frangipani locks whole files,
// readers always invalidate their entire cache — but the writer flushes
// less dirty data per revocation when it modified less, so readers reacquire
// the lock faster: smaller shared region => higher read throughput.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/harness.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

constexpr uint64_t kFileBytes = 4ull << 20;
constexpr double kWindowSeconds = 4.0;

// One measured configuration. A failed setup step, write or read counts in
// `failed`; a row with any failure is not reported.
struct Result {
  double mbs = 0;
  int failed = 0;
};

Result RunSharing(int readers, uint64_t write_bytes) {
  Result failed_setup{0, 1};
  Cluster cluster(PaperClusterOptions(/*nvram=*/true));
  if (!cluster.Start().ok()) {
    return failed_setup;
  }
  for (int m = 0; m < readers + 1; ++m) {
    if (!cluster.AddFrangipani().ok()) {
      return failed_setup;
    }
  }
  for (int m = 0; m <= readers; ++m) {
    cluster.fs(m)->SetReadahead(false);
  }
  auto ino = cluster.fs(0)->Create("/shared");
  if (!ino.ok()) {
    return failed_setup;
  }
  Bytes unit(64 * 1024, 0x2A);
  for (uint64_t off = 0; off < kFileBytes; off += unit.size()) {
    if (!cluster.fs(0)->Write(*ino, off, unit).ok()) {
      return failed_setup;
    }
  }
  if (!cluster.fs(0)->SyncAll().ok()) {
    return failed_setup;
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<int> failed{0};
  Bytes wbuf(write_bytes, 0x77);
  std::thread writer([&] {
    while (!stop.load()) {
      failed += !cluster.fs(0)->Write(*ino, 0, wbuf).ok();
    }
  });
  std::vector<std::thread> reader_threads;
  for (int r = 1; r <= readers; ++r) {
    reader_threads.emplace_back([&, r] {
      Bytes buf;
      while (!stop.load()) {
        for (uint64_t off = 0; off < kFileBytes && !stop.load(); off += 64 * 1024) {
          auto n = cluster.fs(r)->Read(*ino, off, 64 * 1024, &buf);
          if (n.ok()) {
            bytes_read.fetch_add(*n);
          } else {
            ++failed;
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWindowSeconds));
  stop.store(true);
  writer.join();
  for (auto& t : reader_threads) {
    t.join();
  }
  return {bytes_read.load() / kWindowSeconds / (1 << 20), failed.load()};
}

}  // namespace

int main() {
  std::printf("Figure 9: reader/writer contention vs shared-data size\n");
  std::printf("(read-ahead disabled; aggregate read MB/s)\n\n");
  std::printf("readers    8 KB     16 KB    64 KB   failed\n");
  std::vector<std::string> rows;
  int failed_rows = 0;
  for (int readers : {1, 2, 3, 4, 5, 6}) {
    Result k8 = RunSharing(readers, 8 * 1024);
    Result k16 = RunSharing(readers, 16 * 1024);
    Result k64 = RunSharing(readers, 64 * 1024);
    int failed = k8.failed + k16.failed + k64.failed;
    std::printf("   %d      %6.2f   %6.2f   %6.2f   %d\n", readers, k8.mbs, k16.mbs, k64.mbs,
                failed);
    failed_rows += failed > 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.3f,%.3f,%.3f", readers, k8.mbs, k16.mbs, k64.mbs);
    rows.push_back(buf);
  }
  std::printf("\npaper: smaller shared region => better performance (less dirty data to\n"
              "flush per lock handoff)\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "%d rows had failed ops: not reporting them\n", failed_rows);
    return 1;
  }
  WriteCsv("fig9_sharing_size", "readers,write8k_mbs,write16k_mbs,write64k_mbs", rows);
  return 0;
}
