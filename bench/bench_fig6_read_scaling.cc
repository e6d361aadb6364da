// Figure 6: uncached-read scaling. N Frangipani machines simultaneously
// read the same set of files (one large file here); aggregate throughput
// should scale nearly linearly (each machine saturates its own link; Petal's
// seven servers have ample aggregate bandwidth). Paper shows near-linear
// speedup to the limits of its testbed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench/harness.h"
#include "src/obs/metrics.h"

using namespace frangipani;
using namespace frangipani::bench;

int main() {
  constexpr uint64_t kFileBytes = 4ull << 20;
  std::printf("Figure 6: uncached read scaling (aggregate MB/s)\n\n");
  std::printf("machines  aggregate  per-machine  linear-ref  failed\n");
  std::vector<std::string> rows;
  double base = 0;

  Cluster cluster(PaperClusterOptions(/*nvram=*/true));
  if (!cluster.Start().ok()) {
    return 1;
  }

  // Large-transfer microbenchmark: 1 MB uncached sequential read straight
  // through the Petal client, serial (window 1) vs scatter-gather (window 8)
  // on the same cluster. This isolates the async fan-out speedup that gives
  // the scaling curve below its per-machine slope.
  {
    PetalClient* petal = cluster.admin_petal();
    auto vd = petal->CreateVdisk();
    if (!vd.ok()) {
      return 1;
    }
    Bytes payload(1 << 20, 0x7E);
    if (!petal->Write(*vd, 0, payload).ok()) {
      return 1;
    }
    obs::Gauge* peak = obs::MetricsRegistry::Default()->GetGauge("petal.inflight_peak");
    std::vector<std::string> xfer_rows;
    std::printf("1 MB uncached sequential read (Petal client, MB/s):\n");
    double serial_mbs = 0;
    double parallel_mbs = 0;
    for (uint32_t window : {1u, 8u}) {
      petal->set_io_window(window);
      peak->Reset();
      double best = 0;
      for (int rep = 0; rep < 3; ++rep) {
        Bytes back;
        double t0 = NowSeconds();
        if (!petal->Read(*vd, 0, payload.size(), &back).ok()) {
          return 1;
        }
        best = std::max(best, (payload.size() / 1048576.0) / (NowSeconds() - t0));
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
    petal->set_io_window(8);
    std::printf("  parallel/serial speedup: %.2fx\n\n",
                serial_mbs > 0 ? parallel_mbs / serial_mbs : 0.0);
    WriteCsv("fig6_large_transfer", "mode,window,read_mbs,inflight_peak", xfer_rows);
  }

  // Six machines; machine 0 writes the shared file once.
  for (int m = 0; m < 6; ++m) {
    if (!cluster.AddFrangipani().ok()) {
      return 1;
    }
  }
  {
    auto ino = cluster.fs(0)->Create("/shared");
    if (!ino.ok()) {
      return 1;
    }
    Bytes unit(64 * 1024, 0x5C);
    for (uint64_t off = 0; off < kFileBytes; off += unit.size()) {
      if (!cluster.fs(0)->Write(*ino, off, unit).ok()) {
        return 1;
      }
    }
    if (!cluster.fs(0)->SyncAll().ok()) {
      return 1;
    }
  }

  // A row with a failed cache drop, lookup or read is printed with its
  // count, and the binary exits nonzero instead of writing the CSV.
  int failed_rows = 0;
  for (int machines : {1, 2, 3, 4, 5, 6}) {
    std::atomic<int> failed{0};
    for (int m = 0; m < 6; ++m) {
      failed += !cluster.fs(m)->DropCaches().ok();
    }
    std::vector<std::thread> readers;
    double t0 = NowSeconds();
    for (int m = 0; m < machines; ++m) {
      readers.emplace_back([&, m] {
        auto ino = cluster.fs(m)->Lookup("/shared");
        if (!ino.ok() || !StreamRead(cluster.fs(m), *ino, kFileBytes).ok()) {
          ++failed;
        }
      });
    }
    for (auto& t : readers) {
      t.join();
    }
    double secs = NowSeconds() - t0;
    double aggregate = machines * (kFileBytes / 1048576.0) / secs;
    if (machines == 1) {
      base = aggregate;
    }
    std::printf("   %d       %7.1f     %7.1f     %7.1f      %d\n", machines, aggregate,
                aggregate / machines, base * machines, failed.load());
    failed_rows += failed.load() > 0;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%d,%.2f,%.2f", machines, aggregate, base * machines);
    rows.push_back(buf);
  }
  std::printf("\npaper: near-linear scaling (dotted linear-speedup reference)\n");
  if (failed_rows > 0) {
    std::fprintf(stderr, "%d rows had failed ops: not reporting them\n", failed_rows);
    return 1;
  }
  WriteCsv("fig6_read_scaling", "machines,aggregate_mbs,linear_ref_mbs", rows);
  return 0;
}
