// Figure 7: write scaling. Each Frangipani machine writes a distinct large
// file. Because the virtual disk is replicated, every logical write turns
// into two writes at the Petal servers, so aggregate throughput tapers when
// the Petal-side links saturate — the paper's curve flattens well below the
// linear reference while per-machine links are still underused.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "src/obs/metrics.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

// Large-transfer microbenchmark: 1 MB sequential write straight through the
// Petal client (dual-write replication included), serial (window 1) vs
// scatter-gather (window 8). Each run targets a fresh offset so every write
// is a first write to that region.
int RunLargeTransfer() {
  Cluster cluster(PaperClusterOptions(/*nvram=*/true));
  if (!cluster.Start().ok()) {
    return 1;
  }
  PetalClient* petal = cluster.admin_petal();
  auto vd = petal->CreateVdisk();
  if (!vd.ok()) {
    return 1;
  }
  Bytes payload(1 << 20, 0x3A);
  obs::Gauge* peak = obs::MetricsRegistry::Default()->GetGauge("petal.inflight_peak");
  std::vector<std::string> xfer_rows;
  std::printf("1 MB sequential write (Petal client, replicated, MB/s):\n");
  double serial_mbs = 0;
  double parallel_mbs = 0;
  uint64_t offset = 0;
  for (uint32_t window : {1u, 8u}) {
    petal->set_io_window(window);
    peak->Reset();
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
      double t0 = NowSeconds();
      if (!petal->Write(*vd, offset, payload).ok()) {
        return 1;
      }
      best = std::max(best, (payload.size() / 1048576.0) / (NowSeconds() - t0));
      offset += payload.size();
    }
    (window == 1 ? serial_mbs : parallel_mbs) = best;
    std::printf("  window %u (%s): %7.1f MB/s  inflight-peak %lld\n", window,
                window == 1 ? "serial" : "parallel", best,
                static_cast<long long>(peak->value()));
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s,%u,%.2f,%lld", window == 1 ? "serial" : "parallel",
                  window, best, static_cast<long long>(peak->value()));
    xfer_rows.push_back(buf);
  }
  std::printf("  parallel/serial speedup: %.2fx\n\n",
              serial_mbs > 0 ? parallel_mbs / serial_mbs : 0.0);
  WriteCsv("fig7_large_transfer", "mode,window,write_mbs,inflight_peak", xfer_rows);
  return 0;
}

}  // namespace

int main() {
  constexpr uint64_t kFileBytes = 4ull << 20;
  std::printf("Figure 7: write scaling (aggregate MB/s; replicated virtual disk)\n\n");
  if (int rc = RunLargeTransfer()) {
    return rc;
  }
  std::printf("machines  aggregate  linear-ref  petal-bytes/logical  failed\n");
  std::vector<std::string> rows;
  double base = 0;
  // A row with a failed create or stream write is printed with its count,
  // and the binary exits nonzero instead of writing the CSV.
  int failed_rows = 0;

  for (int machines : {1, 2, 3, 4, 5, 6}) {
    Cluster cluster(PaperClusterOptions(/*nvram=*/true));
    if (!cluster.Start().ok()) {
      return 1;
    }
    for (int m = 0; m < machines; ++m) {
      if (!cluster.AddFrangipani().ok()) {
        return 1;
      }
    }
    std::atomic<int> failed{0};
    std::vector<uint64_t> inos(machines, 0);
    for (int m = 0; m < machines; ++m) {
      auto ino = cluster.fs(m)->Create("/big" + std::to_string(m));
      if (ino.ok()) {
        inos[m] = *ino;
      } else {
        ++failed;
      }
    }
    uint64_t petal_before = 0;
    for (NodeId n : cluster.petal_nodes()) {
      petal_before += cluster.net()->BytesThrough(n);
    }
    std::vector<std::thread> writers;
    double t0 = NowSeconds();
    for (int m = 0; m < machines; ++m) {
      writers.emplace_back([&, m] {
        if (inos[m] == 0 || !StreamWrite(cluster.fs(m), inos[m], kFileBytes).ok()) {
          ++failed;
        }
      });
    }
    for (auto& t : writers) {
      t.join();
    }
    double secs = NowSeconds() - t0;
    uint64_t petal_after = 0;
    for (NodeId n : cluster.petal_nodes()) {
      petal_after += cluster.net()->BytesThrough(n);
    }
    double aggregate = machines * (kFileBytes / 1048576.0) / secs;
    double amplification =
        static_cast<double>(petal_after - petal_before) / (machines * kFileBytes);
    if (machines == 1) {
      base = aggregate;
    }
    std::printf("   %d       %7.1f    %7.1f        %5.2fx             %d\n", machines, aggregate,
                base * machines, amplification, failed.load());
    failed_rows += failed.load() > 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.2f,%.2f,%.2f", machines, aggregate, base * machines,
                  amplification);
    rows.push_back(buf);
  }
  std::printf("\npaper: performance tapers off early because the Petal-side links saturate\n"
              "(each write turns into two writes to the Petal servers)\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "%d rows had failed ops: not reporting them\n", failed_rows);
    return 1;
  }
  WriteCsv("fig7_write_scaling", "machines,aggregate_mbs,linear_ref_mbs,petal_amplification",
           rows);
  return 0;
}
