// fgp_bench: the paper's evaluation (§9: Tables 1–3, Figures 5–10) plus
// the ablations and server-side microbenches, as one table of experiments.
//
//   fgp_bench --list          prints the experiment names
//   fgp_bench --exp <name>    runs one experiment in this process
//
// Each experiment returns its CSV rows, each with the number of failed ops
// behind it. main() prints them and writes bench_results/<name>.csv
// (plus the harness's sidecars) only if the experiment succeeded and no row
// had a failed op; otherwise it exits nonzero. One experiment per process
// keeps each sidecar about that experiment: the metrics registry, flight
// recorder and time-series sampler are process-wide.
#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/base/clock.h"
#include "src/base/histogram.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/petal/petal_client.h"
#include "src/petal/petal_server.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

// One CSV row and the number of failed ops behind it.
struct Row {
  std::string csv;
  int failed = 0;
};

struct Table {
  std::string header;
  std::vector<Row> rows;
};

constexpr uint64_t kUnit = 64 * 1024;        // every streaming op moves 64 KB
constexpr uint64_t kFileBytes = 4ull << 20;  // the scaling figures' file
constexpr double kWindowSeconds = 4.0;       // Figures 8–10's measuring window

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// ---- shared helpers ----

// Starts a cluster and mounts the file system on `machines` machines.
StatusOr<std::unique_ptr<Cluster>> StartCluster(const ClusterOptions& options, int machines) {
  auto cluster = std::make_unique<Cluster>(options);
  RETURN_IF_ERROR(cluster->Start());
  for (int m = 0; m < machines; ++m) {
    RETURN_IF_ERROR(cluster->AddFrangipani().status());
  }
  return cluster;
}

// Bytes through the Petal servers' NICs so far.
uint64_t PetalBytes(Cluster& cluster) {
  uint64_t total = 0;
  for (NodeId n : cluster.petal_nodes()) {
    total += cluster.net()->BytesThrough(n);
  }
  return total;
}

// Runs body(0..n-1) on n threads; returns wall seconds from spawn to join.
double RunThreads(int n, const std::function<void(int)>& body) {
  double t0 = NowSeconds();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(body, i);
  }
  for (auto& t : threads) {
    t.join();
  }
  return NowSeconds() - t0;
}

// The measuring window: runs body(i, stop) on n threads, sleeps `seconds`,
// sets stop and joins. Returns wall seconds from the last spawn to the join.
double RunWindow(int n, double seconds,
                 const std::function<void(int, const std::atomic<bool>&)>& body) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] { body(i, stop); });
  }
  double t0 = NowSeconds();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  return NowSeconds() - t0;
}

// Writes [0, bytes) of `ino` in 64 KB units.
Status Fill(FrangipaniFs* fs, uint64_t ino, uint64_t bytes) {
  Bytes unit(kUnit, 0x5C);
  for (uint64_t off = 0; off < bytes; off += kUnit) {
    RETURN_IF_ERROR(fs->Write(ino, off, unit));
  }
  return OkStatus();
}

// Runs fn(fs) on a one-machine Frangipani cluster, or on the AdvFS baseline
// (unmounted afterwards).
template <typename Fn>
auto OnOneMachine(bool advfs, bool nvram, Fn fn) -> decltype(fn(nullptr)) {
  if (!advfs) {
    ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                     StartCluster(PaperClusterOptions(nvram), 1));
    return fn(cluster->fs(0));
  }
  AdvFsLike baseline(PaperAdvFsOptions(nvram));
  RETURN_IF_ERROR(baseline.FormatAndMount());
  auto result = fn(baseline.fs());
  if (result.ok()) {
    RETURN_IF_ERROR(baseline.Unmount());
  }
  return result;
}

// ---- Table 1: Modified Andrew Benchmark, one machine ----
// AdvFS-like local FS and Frangipani, each with raw disks and with NVRAM.
// §9.2: Frangipani's elapsed times are comparable to a well-tuned local file
// system, and NVRAM absorbs write latency.

StatusOr<Table> Table1Mab() {
  MabResult r[4];
  for (int i = 0; i < 4; ++i) {  // AdvFS raw, AdvFS NVR, Frangipani raw, Frangipani NVR
    ASSIGN_OR_RETURN(r[i], OnOneMachine(/*advfs=*/i < 2, /*nvram=*/i % 2 == 1,
                                        [](FrangipaniFs* fs) { return RunMab(fs, "/mab"); }));
  }
  Table t{"phase,advfs_raw,advfs_nvr,frangipani_raw,frangipani_nvr", {}};
  const std::pair<const char*, double MabResult::*> phases[] = {
      {"create_dirs", &MabResult::create_dirs_s}, {"copy_files", &MabResult::copy_files_s},
      {"dir_status", &MabResult::dir_status_s},   {"scan_files", &MabResult::scan_files_s},
      {"compile", &MabResult::compile_s},
  };
  for (const auto& [phase, field] : phases) {
    t.rows.push_back({Fmt("%s,%.3f,%.3f,%.3f,%.3f", phase, r[0].*field, r[1].*field,
                          r[2].*field, r[3].*field)});
  }
  t.rows.push_back({Fmt("total,%.3f,%.3f,%.3f,%.3f", r[0].Total(), r[1].Total(),
                        r[2].Total(), r[3].Total())});
  return t;
}

// ---- Table 2: metadata operation latency, one machine ----
// Table 1's four configurations. Each op runs a fixed number of times on
// fresh names spread over 16 directories, so lookups stay short; each call is
// timed by wall clock. Dropping caches and truncating between calls are not
// timed. §9.2: Frangipani's metadata latency is good because its updates are
// logged asynchronously, and NVRAM absorbs the synchronous writes (fsync).
// ReadSeq1M and WriteSeq1M are not in the paper; they track the Petal
// client's scatter-gather 1 MB transfers.

// The 12 ops on `fs`, one row each: median and p90 µs per call.
StatusOr<std::vector<Row>> Table2OpsOn(FrangipaniFs* fs, const char* config) {
  constexpr int kCalls = 60;
  constexpr int kCalls1M = 8;
  constexpr size_t k1M = 1 << 20;
  RETURN_IF_ERROR(fs->Mkdir("/ops"));
  for (int d = 0; d < 16; ++d) {
    RETURN_IF_ERROR(fs->Mkdir("/ops/" + std::to_string(d)));
  }
  uint64_t names = 0;
  auto fresh = [&](const char* stem) {
    uint64_t n = names++;
    return "/ops/" + std::to_string(n % 16) + "/" + stem + std::to_string(n);
  };

  std::vector<Row> rows;
  Histogram us;  // the current op's calls
  int failed = 0;
  auto check = [&](const auto& result) { failed += !result.ok(); };
  Bytes buf;
  // A read must succeed and return every byte asked for.
  auto read = [&](uint64_t ino, size_t n) {
    StatusOr<size_t> got = fs->Read(ino, 0, n, &buf);
    failed += !got.ok() || *got != n;
  };
  auto timed = [&](const auto& call) {
    double t0 = NowSeconds();
    call();
    us.Record((NowSeconds() - t0) * 1e6);
  };
  auto row = [&](const char* op) {
    rows.push_back(
        {Fmt("%s,%s,%.1f,%.1f", op, config, us.Percentile(0.5), us.Percentile(0.9)), failed});
    us.Reset();
    failed = 0;
  };

  for (int i = 0; i < kCalls; ++i) {
    timed([&] { check(fs->Create(fresh("c"))); });
  }
  row("Create");
  for (int i = 0; i < kCalls; ++i) {
    timed([&] { check(fs->Mkdir(fresh("d"))); });
  }
  row("Mkdir");
  for (int i = 0; i < kCalls; ++i) {
    timed([&] {
      std::string path = fresh("u");
      check(fs->Create(path));
      check(fs->Unlink(path));
    });
  }
  row("UnlinkCreatePair");

  std::string warm = fresh("w");
  RETURN_IF_ERROR(fs->Create(warm).status());
  for (int i = 0; i < kCalls; ++i) {
    timed([&] { check(fs->Stat(warm)); });
  }
  row("StatWarm");
  std::string cold = fresh("s");
  RETURN_IF_ERROR(fs->Create(cold).status());
  for (int i = 0; i < kCalls; ++i) {
    check(fs->DropCaches());
    timed([&] { check(fs->Stat(cold)); });
  }
  row("StatCold");
  // StatCold's last DropCaches left the directories cold; reading each once
  // keeps the first symlink into it from timing a directory read.
  for (int d = 0; d < 16; ++d) {
    RETURN_IF_ERROR(fs->Readdir("/ops/" + std::to_string(d)).status());
  }
  for (int i = 0; i < kCalls; ++i) {
    timed([&] { check(fs->Symlink("/ops/target", fresh("l"))); });
  }
  row("Symlink");
  std::string path = fresh("r");
  RETURN_IF_ERROR(fs->Create(path).status());
  for (int i = 0; i < kCalls; ++i) {
    timed([&] {
      std::string next = fresh("r");
      check(fs->Rename(path, next));
      path = next;
    });
  }
  row("Rename");

  ASSIGN_OR_RETURN(uint64_t ino, fs->Create(fresh("rw")));
  RETURN_IF_ERROR(fs->Write(ino, 0, Bytes(kUnit, 0x5A)));
  for (int i = 0; i < kCalls; ++i) {
    timed([&] { read(ino, kUnit); });
  }
  row("ReadWarm64K");
  ASSIGN_OR_RETURN(ino, fs->Create(fresh("rc")));
  RETURN_IF_ERROR(fs->Write(ino, 0, Bytes(kUnit, 0x5A)));
  RETURN_IF_ERROR(fs->Fsync(ino));
  for (int i = 0; i < kCalls; ++i) {
    check(fs->DropCaches());
    timed([&] { read(ino, kUnit); });
  }
  row("ReadCold64K");
  ASSIGN_OR_RETURN(ino, fs->Create(fresh("a")));
  Bytes kilobyte(1024, 0x42);
  uint64_t off = 0;
  for (int i = 0; i < kCalls; ++i) {
    timed([&] {
      check(fs->Write(ino, off, kilobyte));
      check(fs->Fsync(ino));
    });
    off += kilobyte.size();
    if (off > 48 * 1024) {
      check(fs->Truncate(ino, 0));
      off = 0;
    }
  }
  row("AppendFsync1K");

  ASSIGN_OR_RETURN(ino, fs->Create(fresh("seq")));
  RETURN_IF_ERROR(fs->Write(ino, 0, Bytes(k1M, 0x5A)));
  RETURN_IF_ERROR(fs->Fsync(ino));
  for (int i = 0; i < kCalls1M; ++i) {
    check(fs->DropCaches());
    timed([&] { read(ino, k1M); });
  }
  row("ReadSeq1M");
  ASSIGN_OR_RETURN(ino, fs->Create(fresh("seqw")));
  Bytes megabyte(k1M, 0x6B);
  for (int i = 0; i < kCalls1M; ++i) {
    timed([&] {
      check(fs->Write(ino, 0, megabyte));
      check(fs->Fsync(ino));
    });
    check(fs->Truncate(ino, 0));
    check(fs->Fsync(ino));
  }
  row("WriteSeq1M");
  return rows;
}

StatusOr<Table> Table2Ops() {
  const char* configs[] = {"advfs_raw", "advfs_nvr", "frangipani_raw", "frangipani_nvr"};
  std::vector<Row> by_config[4];
  for (int i = 0; i < 4; ++i) {
    ASSIGN_OR_RETURN(by_config[i],
                     OnOneMachine(/*advfs=*/i < 2, /*nvram=*/i % 2 == 1,
                                  [&](FrangipaniFs* fs) { return Table2OpsOn(fs, configs[i]); }));
  }
  Table t{"op,config,p50_us,p90_us", {}};
  for (size_t op = 0; op < by_config[0].size(); ++op) {
    for (const std::vector<Row>& rows : by_config) {
      t.rows.push_back(rows[op]);
    }
  }
  return t;
}

// ---- Table 3: single-machine throughput and CPU utilization ----
// Paper: Frangipani write 15.3 MB/s @ 42% CPU, read 10.3 MB/s @ 25%; AdvFS
// write 13.3 MB/s @ 80%, read 13.2 MB/s @ 50%. Frangipani writes saturate
// its ~17 MB/s link; AdvFS is disk/controller bound. CPU is process-wide, so
// it includes the in-process Petal and lock servers.

struct Stream {
  double write_mbs = 0;
  double read_mbs = 0;
  double write_cpu = 0;
  double read_cpu = 0;
};

// Writes an 8 MB file in 64 KB units and fsyncs it, then reads it uncached.
StatusOr<Stream> MeasureStream(FrangipaniFs* fs) {
  constexpr uint64_t kStreamBytes = 8ull << 20;
  Stream s;
  ASSIGN_OR_RETURN(uint64_t ino, fs->Create("/big"));
  CpuMeter cpu;
  cpu.Start();
  ASSIGN_OR_RETURN(s.write_mbs, StreamWrite(fs, ino, kStreamBytes));
  s.write_cpu = cpu.Stop().second;
  RETURN_IF_ERROR(fs->DropCaches());
  cpu.Start();
  ASSIGN_OR_RETURN(s.read_mbs, StreamRead(fs, ino, kStreamBytes));
  s.read_cpu = cpu.Stop().second;
  return s;
}

// §9.2's small-file experiment: 30 processes each read a separate uncached
// 8 KB file. Paper: 6.3 MB/s, ~80% of raw Petal small-read throughput.
StatusOr<Row> SmallReads() {
  constexpr int kProcs = 30;
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                   StartCluster(PaperClusterOptions(/*nvram=*/true), 1));
  FrangipaniFs* fs = cluster->fs(0);
  for (int i = 0; i < kProcs; ++i) {
    ASSIGN_OR_RETURN(uint64_t ino, fs->Create("/small" + std::to_string(i)));
    RETURN_IF_ERROR(fs->Write(ino, 0, Bytes(8192, static_cast<uint8_t>(i))));
  }
  RETURN_IF_ERROR(fs->DropCaches());
  std::atomic<int> failed{0};
  double secs = RunThreads(kProcs, [&](int i) {
    auto ino = fs->Lookup("/small" + std::to_string(i));
    Bytes buf;
    if (!ino.ok() || !fs->Read(*ino, 0, 8192, &buf).ok() || buf.size() != 8192) {
      ++failed;
    }
  });
  double mbs = kProcs * 8192.0 / secs / (1 << 20);
  return Row{"small_read," + std::to_string(mbs) + ",,,", failed.load()};
}

StatusOr<Table> Table3Throughput() {
  ASSIGN_OR_RETURN(Stream fr, OnOneMachine(/*advfs=*/false, /*nvram=*/true, MeasureStream));
  ASSIGN_OR_RETURN(Stream adv, OnOneMachine(/*advfs=*/true, /*nvram=*/true, MeasureStream));
  ASSIGN_OR_RETURN(Row small, SmallReads());
  Table t{"op,frangipani_mbs,advfs_mbs,frangipani_cpu,advfs_cpu", {}};
  t.rows.push_back({"write," + std::to_string(fr.write_mbs) + "," +
                    std::to_string(adv.write_mbs) + "," + std::to_string(fr.write_cpu) + "," +
                    std::to_string(adv.write_cpu)});
  t.rows.push_back({"read," + std::to_string(fr.read_mbs) + "," + std::to_string(adv.read_mbs) +
                    "," + std::to_string(fr.read_cpu) + "," + std::to_string(adv.read_cpu)});
  t.rows.push_back(small);
  return t;
}

// ---- Read latency: cold 64 KB reads, one machine ----
// Not a paper figure: the caller's view of single reads, which Table 3's
// throughput hides. Each pass drops the cache first. "sequential" reads
// the large region of a fresh 4 MB file in order, one file per pass, so a
// pass's first read is a lone cold unit that starts read-ahead. "skip24"
// reads one unit in every 24 of an 8 MB file, from a different first unit
// each pass, so every read lands past the last read's read-ahead window.
// first_ms is the median first read of a pass; the other columns cover
// every read.
StatusOr<Table> ReadLatency() {
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                   StartCluster(PaperClusterOptions(/*nvram=*/true), 1));
  FrangipaniFs* fs = cluster->fs(0);
  auto make_file = [&](const std::string& path, uint64_t bytes) -> StatusOr<uint64_t> {
    ASSIGN_OR_RETURN(uint64_t ino, fs->Create(path));
    RETURN_IF_ERROR(Fill(fs, ino, bytes));
    RETURN_IF_ERROR(fs->SyncAll());
    return ino;
  };
  Table t{"pattern,reads,first_ms,p50_ms,mean_ms,p99_ms", {}};
  Histogram first, all;
  Bytes buf;
  // Reads units `unit`, `unit + stride`, ... of `ino`'s `bytes`.
  auto pass = [&](uint64_t ino, uint64_t bytes, uint64_t unit, uint64_t stride) -> Status {
    RETURN_IF_ERROR(fs->DropCaches());
    for (bool lead = true; unit * kUnit < bytes; unit += stride, lead = false) {
      double t0 = NowSeconds();
      RETURN_IF_ERROR(fs->Read(ino, unit * kUnit, kUnit, &buf).status());
      const double ms = (NowSeconds() - t0) * 1000;
      if (lead) {
        first.Record(ms);
      }
      all.Record(ms);
    }
    return OkStatus();
  };
  auto row = [&](const char* pattern) {
    t.rows.push_back({Fmt("%s,%zu,%.2f,%.2f,%.2f,%.2f", pattern, all.count(),
                          first.Percentile(0.5), all.Percentile(0.5), all.Mean(),
                          all.Percentile(0.99))});
    first.Reset();
    all.Reset();
  };
  for (int p = 0; p < 3; ++p) {
    ASSIGN_OR_RETURN(uint64_t ino, make_file("/seq" + std::to_string(p), 4ull << 20));
    RETURN_IF_ERROR(pass(ino, 4ull << 20, /*unit=*/1, /*stride=*/1));
  }
  row("sequential");
  ASSIGN_OR_RETURN(uint64_t ino, make_file("/skip", 8ull << 20));
  for (uint64_t p = 0; p < 8; ++p) {
    RETURN_IF_ERROR(pass(ino, 8ull << 20, /*unit=*/3 * p, /*stride=*/24));
  }
  row("skip24");
  return t;
}

// ---- Figure 5: MAB scaling ----
// N machines run MAB at once on independent subtrees; the row is the average
// elapsed time per machine. Paper: +8% from 1 to 6 machines (no sharing).

StatusOr<Table> Fig5MabScaling() {
  Table t{"machines,create,copy,status,scan,compile,total", {}};
  for (int machines : {1, 2, 3, 4, 6}) {
    ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                     StartCluster(PaperClusterOptions(/*nvram=*/true), machines));
    std::vector<MabResult> results(machines);
    std::atomic<int> failed{0};
    RunThreads(machines, [&](int m) {
      StatusOr<MabResult> r = RunMab(cluster->fs(m), "/mab" + std::to_string(m));
      if (r.ok()) {
        results[m] = *r;
      } else {
        ++failed;
        std::fprintf(stderr, "machine %d: MAB failed: %s\n", m, r.status().ToString().c_str());
      }
    });
    MabResult avg;
    for (const MabResult& r : results) {
      avg.create_dirs_s += r.create_dirs_s / machines;
      avg.copy_files_s += r.copy_files_s / machines;
      avg.dir_status_s += r.dir_status_s / machines;
      avg.scan_files_s += r.scan_files_s / machines;
      avg.compile_s += r.compile_s / machines;
    }
    t.rows.push_back({Fmt("%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f", machines, avg.create_dirs_s,
                          avg.copy_files_s, avg.dir_status_s, avg.scan_files_s, avg.compile_s,
                          avg.Total()),
                      failed.load()});
  }
  return t;
}

// ---- Figures 6 and 7: the large-transfer probes ----
// A 1 MB sequential transfer straight through a Petal client (writes are
// replicated), scatter-gathered under the client's window, best of three.
// The client runs on a fresh network node, which gets the cluster's link
// model. Writes go to fresh offsets, so each is a first write to its
// region. This isolates the fan-out that gives the scaling curves their
// per-machine slope.

StatusOr<Table> LargeTransfer(bool write) {
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                   StartCluster(PaperClusterOptions(/*nvram=*/true), 0));
  ASSIGN_OR_RETURN(VdiskId vd, cluster->admin_petal()->CreateVdisk());
  Bytes payload(1 << 20, 0x7E);
  if (!write) {
    RETURN_IF_ERROR(cluster->admin_petal()->Write(vd, 0, payload));
  }
  obs::Gauge* peak = obs::MetricsRegistry::Default()->GetGauge("petal.inflight_peak");
  PetalClient petal(cluster->net(), cluster->net()->AddNode("probe"), cluster->petal_nodes());
  RETURN_IF_ERROR(petal.RefreshMap());
  peak->Reset();
  double best = 0;
  uint64_t offset = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Bytes back;
    double t0 = NowSeconds();
    RETURN_IF_ERROR(write ? petal.Write(vd, offset, payload)
                          : petal.Read(vd, 0, payload.size(), &back));
    best = std::max(best, (payload.size() / 1048576.0) / (NowSeconds() - t0));
    offset += write ? payload.size() : 0;
  }
  return Table{write ? "write_mbs,inflight_peak" : "read_mbs,inflight_peak",
               {{Fmt("%.2f,%lld", best, static_cast<long long>(peak->value()))}}};
}

// ---- Figure 6: uncached read scaling ----
// N machines read the same 4 MB file at once. Paper: near-linear scaling
// (each machine saturates its own link; Petal has ample aggregate bandwidth).

StatusOr<Table> Fig6ReadScaling() {
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                   StartCluster(PaperClusterOptions(/*nvram=*/true), 6));
  ASSIGN_OR_RETURN(uint64_t ino, cluster->fs(0)->Create("/shared"));
  RETURN_IF_ERROR(Fill(cluster->fs(0), ino, kFileBytes));
  RETURN_IF_ERROR(cluster->fs(0)->SyncAll());
  Table t{"machines,aggregate_mbs,linear_ref_mbs", {}};
  double base = 0;
  for (int machines : {1, 2, 3, 4, 5, 6}) {
    std::atomic<int> failed{0};
    for (int m = 0; m < 6; ++m) {
      failed += !cluster->fs(m)->DropCaches().ok();
    }
    double secs = RunThreads(machines, [&](int m) {
      auto shared = cluster->fs(m)->Lookup("/shared");
      if (!shared.ok() || !StreamRead(cluster->fs(m), *shared, kFileBytes).ok()) {
        ++failed;
      }
    });
    double aggregate = machines * (kFileBytes / 1048576.0) / secs;
    if (machines == 1) {
      base = aggregate;
    }
    t.rows.push_back({Fmt("%d,%.2f,%.2f", machines, aggregate, base * machines), failed.load()});
  }
  return t;
}

// ---- Figure 7: write scaling ----
// Each machine writes its own 4 MB file. Replication turns every write into
// two at the Petal servers, so aggregate throughput tapers as the Petal-side
// links saturate while per-machine links are still underused.

StatusOr<Table> Fig7WriteScaling() {
  Table t{"machines,aggregate_mbs,linear_ref_mbs,petal_amplification", {}};
  double base = 0;
  for (int machines : {1, 2, 3, 4, 5, 6}) {
    ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                     StartCluster(PaperClusterOptions(/*nvram=*/true), machines));
    std::vector<uint64_t> inos(machines);
    for (int m = 0; m < machines; ++m) {
      ASSIGN_OR_RETURN(inos[m], cluster->fs(m)->Create("/big" + std::to_string(m)));
    }
    uint64_t petal_before = PetalBytes(*cluster);
    std::atomic<int> failed{0};
    double secs = RunThreads(machines, [&](int m) {
      failed += !StreamWrite(cluster->fs(m), inos[m], kFileBytes).ok();
    });
    double aggregate = machines * (kFileBytes / 1048576.0) / secs;
    double amplification =
        static_cast<double>(PetalBytes(*cluster) - petal_before) / (machines * kFileBytes);
    if (machines == 1) {
      base = aggregate;
    }
    t.rows.push_back({Fmt("%d,%.2f,%.2f,%.2f", machines, aggregate, base * machines,
                          amplification),
                      failed.load()});
  }
  return t;
}

// ---- Figures 8 and 9: reader/writer contention ----
// Machine 0 rewrites the first `write_bytes` of a shared 4 MB file in units
// of at most 64 KB, lap after lap, while `readers` other machines read the
// whole file sequentially over and over. Every lock handoff flushes the
// writer's dirty data and invalidates the readers' caches.

struct Sample {
  double mbs = 0;
  uint64_t wasted_prefetches = 0;
  int failed = 0;
  uint64_t partial_revokes = 0;  // lock.partial_revokes during the window
};

StatusOr<Sample> ReadWriteContention(int readers, bool readahead, uint64_t write_bytes) {
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster,
                   StartCluster(PaperClusterOptions(/*nvram=*/true), readers + 1));
  for (int m = 0; m <= readers; ++m) {
    cluster->fs(m)->SetReadahead(readahead);
  }
  ASSIGN_OR_RETURN(uint64_t ino, cluster->fs(0)->Create("/shared"));
  RETURN_IF_ERROR(Fill(cluster->fs(0), ino, kFileBytes));
  RETURN_IF_ERROR(cluster->fs(0)->SyncAll());

  std::atomic<uint64_t> bytes_read{0};
  std::atomic<int> failed{0};
  Bytes unit(std::min(write_bytes, kUnit), 0x77);
  RunWindow(readers + 1, kWindowSeconds, [&](int m, const std::atomic<bool>& stop) {
    FrangipaniFs* fs = cluster->fs(m);
    if (m == 0) {
      while (!stop.load()) {
        for (uint64_t off = 0; off < write_bytes && !stop.load(); off += unit.size()) {
          failed += !fs->Write(ino, off, unit).ok();
        }
      }
      return;
    }
    Bytes buf;
    while (!stop.load()) {
      for (uint64_t off = 0; off < kFileBytes && !stop.load(); off += kUnit) {
        auto n = fs->Read(ino, off, kUnit, &buf);
        if (n.ok()) {
          bytes_read.fetch_add(*n);
        } else {
          ++failed;
        }
      }
    }
  });
  Sample s;
  s.mbs = bytes_read.load() / kWindowSeconds / (1 << 20);
  for (int r = 1; r <= readers; ++r) {
    s.wasted_prefetches += cluster->fs(r)->Stats().prefetch_wasted;
  }
  s.failed = failed.load();
  return s;
}

// Figure 8: the writer rewrites the whole file. Paper: with read-ahead the
// read rate flattens (~10% of uncontended) because prefetched data is
// invalidated before it is used; without read-ahead it scales with readers.
StatusOr<Table> Fig8RwContention() {
  Table t{"readers,with_readahead_mbs,without_readahead_mbs,wasted", {}};
  for (int readers : {1, 2, 3, 4, 5, 6}) {
    ASSIGN_OR_RETURN(Sample with, ReadWriteContention(readers, true, kFileBytes));
    ASSIGN_OR_RETURN(Sample without, ReadWriteContention(readers, false, kFileBytes));
    t.rows.push_back({Fmt("%d,%.3f,%.3f,%llu", readers, with.mbs, without.mbs,
                          static_cast<unsigned long long>(with.wasted_prefetches)),
                      with.failed + without.failed});
  }
  return t;
}

// Figure 9: read-ahead off; the writer rewrites only the first 8/16/64 KB.
// Locks cover whole files, so readers still lose their whole cache, but the
// writer flushes less per handoff: smaller shared region, faster reads.
StatusOr<Table> Fig9SharingSize() {
  Table t{"readers,write8k_mbs,write16k_mbs,write64k_mbs", {}};
  for (int readers : {1, 2, 3, 4, 5, 6}) {
    ASSIGN_OR_RETURN(Sample k8, ReadWriteContention(readers, false, 8 * 1024));
    ASSIGN_OR_RETURN(Sample k16, ReadWriteContention(readers, false, 16 * 1024));
    ASSIGN_OR_RETURN(Sample k64, ReadWriteContention(readers, false, 64 * 1024));
    t.rows.push_back({Fmt("%d,%.3f,%.3f,%.3f", readers, k8.mbs, k16.mbs, k64.mbs),
                      k8.failed + k16.failed + k64.failed});
  }
  return t;
}

// ---- Figure 10: write/write sharing ----
// N writers each lap a region in 64 KB writes and fsync once per lap, so the
// rate reflects Petal writes rather than buffer-cache acceptance.

enum class Layout {
  kPrivateFiles,     // writer m laps its own file
  kOneFile,          // every writer laps the start of one file
  kPresizedFile,     // ...of one file pre-written to writers x region
  kDisjointRegions,  // writer m laps region m of one pre-written file
};

// `pin_trace`, if set, names the trace this configuration pins before later
// configurations overwrite the recorder's rings.
StatusOr<Sample> WritersLap(int writers, Layout layout, uint64_t region_bytes,
                            const char* pin_trace) {
  ClusterOptions options = PaperClusterOptions(/*nvram=*/true);
  // Lock handoffs under contention run tens of ms: capture them.
  options.slow_op_us = 10'000;
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, StartCluster(options, writers));
  std::vector<uint64_t> inos(writers);
  for (int m = 0; m < writers; ++m) {
    if (layout != Layout::kPrivateFiles && m > 0) {
      inos[m] = inos[0];
      continue;
    }
    ASSIGN_OR_RETURN(inos[m], cluster->fs(m)->Create(layout == Layout::kPrivateFiles
                                                         ? "/private" + std::to_string(m)
                                                         : "/shared"));
  }
  if (layout == Layout::kPresizedFile || layout == Layout::kDisjointRegions) {
    // Pre-sizing makes every write a pure overwrite: extending the file needs
    // the exclusive inode lock, which would serialize the writers on
    // metadata rather than data.
    RETURN_IF_ERROR(Fill(cluster->fs(0), inos[0], writers * region_bytes));
    RETURN_IF_ERROR(cluster->fs(0)->Fsync(inos[0]));
  }

  std::atomic<uint64_t> bytes_written{0};
  std::atomic<int> failed{0};
  obs::Counter* partial_revokes =
      obs::MetricsRegistry::Default()->GetCounter("lock.partial_revokes");
  uint64_t revokes_before = partial_revokes->value();
  RunWindow(writers, kWindowSeconds, [&](int m, const std::atomic<bool>& stop) {
    FrangipaniFs* fs = cluster->fs(m);
    Bytes unit(kUnit, static_cast<uint8_t>(m + 1));
    uint64_t base = layout == Layout::kDisjointRegions ? m * region_bytes : 0;
    uint64_t off = 0;
    while (!stop.load()) {
      if (fs->Write(inos[m], base + off, unit).ok()) {
        bytes_written.fetch_add(unit.size());
      } else {
        ++failed;
      }
      off = (off + unit.size()) % region_bytes;
      if (off == 0) {
        failed += !fs->Fsync(inos[m]).ok();
      }
    }
  });
  if (pin_trace != nullptr) {
    WriteTraceJson(pin_trace);
  }
  return Sample{bytes_written.load() / kWindowSeconds / (1 << 20), 0, failed.load(),
                partial_revokes->value() - revokes_before};
}

// Same file vs private files, 512 KB laps. §2.3: whole-file locks make write
// sharing expensive (every handoff flushes the dirty file); private files
// scale. The 2-writer same-file run pins the revoke -> flush -> release ->
// grant handoff chain between the two nodes.
StatusOr<Table> Fig10WwContention() {
  Table t{"writers,same_file_mbs,private_files_mbs", {}};
  for (int writers : {1, 2, 3, 4}) {
    ASSIGN_OR_RETURN(Sample same, WritersLap(writers, Layout::kOneFile, 8 * kUnit,
                                             writers == 2 ? "fig10_ww_contention" : nullptr));
    ASSIGN_OR_RETURN(Sample priv, WritersLap(writers, Layout::kPrivateFiles, 8 * kUnit, nullptr));
    t.rows.push_back({Fmt("%d,%.3f,%.3f", writers, same.mbs, priv.mbs), same.failed + priv.failed});
  }
  return t;
}

// Extent-lock follow-up: disjoint 1 MB regions of one file vs everyone on the
// same region. Byte-range locks let disjoint extents coexist (no ping-pong,
// no revoke flushes); the same region still pays a flush per handoff, now
// per extent. Each layout's lock.partial_revokes over its measuring window
// shows which of the two hands extents back and forth. The 4-writer
// disjoint run pins its trace.
StatusOr<Table> Fig10Disjoint() {
  Table t{"writers,disjoint_mbs,same_region_mbs,disjoint_partial_revokes,"
          "same_region_partial_revokes",
          {}};
  for (int writers : {1, 2, 3, 4}) {
    ASSIGN_OR_RETURN(Sample disjoint, WritersLap(writers, Layout::kDisjointRegions, 1 << 20,
                                                 writers == 4 ? "fig10_disjoint" : nullptr));
    ASSIGN_OR_RETURN(Sample same, WritersLap(writers, Layout::kPresizedFile, 1 << 20, nullptr));
    t.rows.push_back({Fmt("%d,%.3f,%.3f,%llu,%llu", writers, disjoint.mbs, same.mbs,
                          static_cast<unsigned long long>(disjoint.partial_revokes),
                          static_cast<unsigned long long>(same.partial_revokes)),
                      disjoint.failed + same.failed});
  }
  return t;
}

// ---- Ablations (§2.3, §4, §6) ----

// §6's three lock services: median latency of a write that needs a lock
// handoff between two machines, and of a create on a fresh lock. Paper: the
// primary/backup variant pays a Petal write per lock state change; the
// distributed one matches the centralized one while tolerating faults.
StatusOr<Table> AblationLockService() {
  Table t{"impl,handoff_ms,create_ms", {}};
  const std::pair<const char*, LockServiceKind> kinds[] = {
      {"centralized", LockServiceKind::kCentralized},
      {"primary-backup", LockServiceKind::kPrimaryBackup},
      {"distributed", LockServiceKind::kDistributed},
  };
  for (const auto& [name, kind] : kinds) {
    ClusterOptions options = PaperClusterOptions(/*nvram=*/true);
    options.lock_kind = kind;
    ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, StartCluster(options, 2));
    ASSIGN_OR_RETURN(uint64_t ino, cluster->fs(0)->Create("/pingpong"));
    Bytes data(512, 0x11);
    RETURN_IF_ERROR(cluster->fs(0)->Write(ino, 0, data));  // warm up both clerks
    RETURN_IF_ERROR(cluster->fs(1)->Write(ino, 0, data));
    Histogram handoff;
    for (int i = 0; i < 60; ++i) {
      double t0 = NowSeconds();
      RETURN_IF_ERROR(cluster->fs(i % 2)->Write(ino, 0, data));
      handoff.Record((NowSeconds() - t0) * 1000);
    }
    Histogram cold;
    for (int i = 0; i < 30; ++i) {
      double t0 = NowSeconds();
      RETURN_IF_ERROR(cluster->fs(0)->Create("/cold" + std::to_string(i)).status());
      cold.Record((NowSeconds() - t0) * 1000);
    }
    t.rows.push_back({Fmt("%s,%.3f,%.3f", name, handoff.Percentile(0.5), cold.Percentile(0.5))});
  }
  return t;
}

// §4: median create latency with asynchronous vs synchronous logging, raw
// disks vs NVRAM. Paper: sync logging costs a log write per op on raw disks
// but stays cheap with NVRAM (the log is contiguous).
StatusOr<Table> AblationSyncLog() {
  Table t{"config,create_ms", {}};
  for (bool sync_log : {false, true}) {
    for (bool nvram : {false, true}) {
      ClusterOptions options = PaperClusterOptions(nvram);
      options.node.fs.sync_log = sync_log;
      ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, StartCluster(options, 1));
      Histogram latency;
      for (int i = 0; i < 80; ++i) {
        double t0 = NowSeconds();
        RETURN_IF_ERROR(cluster->fs(0)->Create("/f" + std::to_string(i)).status());
        latency.Record((NowSeconds() - t0) * 1000);
      }
      t.rows.push_back({Fmt("%s log, %s,%.3f", sync_log ? "sync" : "async",
                            nvram ? "NVRAM" : "raw disks", latency.Percentile(0.5))});
    }
  }
  return t;
}

// §2.3: Petal replication doubles the Petal-side write traffic. One machine
// streams 4 MB to 7 replicated servers vs 1 unreplicated server. Paper:
// replication halves Petal's write sink rate; ~2x amplification is why.
StatusOr<Table> AblationReplication() {
  Table t{"config,write_mbs,amplification", {}};
  for (int petal_servers : {7, 1}) {
    ClusterOptions options = PaperClusterOptions(/*nvram=*/true);
    options.petal_servers = petal_servers;
    ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, StartCluster(options, 1));
    ASSIGN_OR_RETURN(uint64_t ino, cluster->fs(0)->Create("/big"));
    uint64_t before = PetalBytes(*cluster);
    ASSIGN_OR_RETURN(double mbs, StreamWrite(cluster->fs(0), ino, kFileBytes));
    double amplification = static_cast<double>(PetalBytes(*cluster) - before) / kFileBytes;
    t.rows.push_back({Fmt("%s,%.3f,%.3f", petal_servers > 1 ? "replicated" : "unreplicated", mbs,
                          amplification)});
  }
  return t;
}

// ---- Server-side parallelism ----
// T client threads hammer ONE Petal server with 64 KB chunk reads, then
// writes, against its sharded chunk store, disk timing off. The store-copy
// model charges the time a shard is busy moving a payload as a sleep held
// under the shard lock, so the serialization shows in wall-clock throughput
// whatever the host's core count. The 8-thread point drops a metrics
// sidecar (petal.store_wait_us, petal.server_read_us).

constexpr int kHammerChunks = 64;       // preloaded working set
constexpr double kHammerSeconds = 0.35;  // per (threads, direction)
constexpr double kStoreCopyBps = 512e6;  // 64 KB ≈ 125 us store occupancy

struct Rate {
  double mbs = 0;
  int failed = 0;
};

Rate Hammer(Network* net, const std::vector<NodeId>& clients, NodeId server, VdiskId vd,
            int threads, bool writes) {
  std::atomic<uint64_t> ops{0};
  std::atomic<int> failed{0};
  double secs = RunWindow(threads, kHammerSeconds, [&](int t, const std::atomic<bool>& stop) {
    uint64_t rng = 0x9E3779B9u * (t + 1);
    Bytes payload;
    if (writes) {
      payload.assign(kChunkSize, static_cast<uint8_t>(0xA0 + t));
    }
    while (!stop.load(std::memory_order_relaxed)) {
      rng = rng * 6364136223846793005ull + 1442695040888963407ull;
      Encoder enc;
      enc.PutU32(vd);
      enc.PutU64((rng >> 33) % kHammerChunks * kChunkSize);
      if (writes) {
        enc.PutI64(0);  // no lease fence
        enc.PutBytes(payload);
      } else {
        enc.PutU32(kChunkSize);
      }
      StatusOr<Bytes> reply = net->Call(clients[t], server, PetalServer::kServiceName,
                                        writes ? PetalServer::kWrite : PetalServer::kRead,
                                        enc.buffer());
      if (reply.ok()) {
        ops.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  return {ops.load() * (kChunkSize / 1048576.0) / secs, failed.load()};
}

StatusOr<Table> ServerScaling() {
  Table t{"threads,read_mbs,write_mbs,store_wait_p99_us", {}};
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  Network net;
  NodeId server_node = net.AddNode("petal0");
  std::vector<NodeId> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(net.AddNode("client" + std::to_string(i)));
  }
  PetalServerDurable durable;
  PetalServerOptions options;
  options.disk.timing_enabled = false;
  options.store_copy_bps = kStoreCopyBps;
  std::vector<NodeId> group = {server_node};
  PetalServer server(&net, server_node, group, group, &durable, options, SystemClock::Get());
  PetalClient setup(&net, net.AddNode("admin"), group);
  RETURN_IF_ERROR(setup.RefreshMap());
  ASSIGN_OR_RETURN(VdiskId vd, setup.CreateVdisk());
  Bytes chunk(kChunkSize, 0x5A);
  for (uint64_t c = 0; c < kHammerChunks; ++c) {
    RETURN_IF_ERROR(setup.Write(vd, c * kChunkSize, chunk));
  }
  for (int threads : {1, 2, 4, 8, 16}) {
    reg->ResetAll();
    Rate read = Hammer(&net, clients, server_node, vd, threads, /*writes=*/false);
    Rate write = Hammer(&net, clients, server_node, vd, threads, /*writes=*/true);
    double wait_p99 = reg->GetHistogram("petal.store_wait_us")->Percentile(0.99);
    t.rows.push_back({Fmt("%d,%.2f,%.2f,%.2f", threads, read.mbs, write.mbs, wait_p99),
                      read.failed + write.failed});
    if (threads == 8) {
      WriteMetricsJson("server_scaling_threads8");
    }
  }
  return t;
}

// ---- Recovery: striped resync after a server restart ----
// Kill one of three Petal servers, dirty its share of the chunk space
// through client failover, then time the restarted server's ResyncFromPeers,
// which stripes its pulls under PetalServer::kResyncWindow. Setup runs with
// disk timing off and unshaped links; both are switched on just before the
// restart (2 ms / 12 MB/s disks, 300 us / 17 MB/s links), so only the resync
// is modeled. Each pull pays two NIC transfers plus a peer disk read and a
// local write (~19 ms per chunk); striped, they overlap until the
// restarter's NIC and disks bound the pass. The registry is reset first, so
// the metrics sidecar (petal.resync_us, _bytes, _inflight_peak,
// _pull_errors) covers this run alone.

StatusOr<Table> Recovery() {
  constexpr int kServers = 3;
  constexpr uint64_t kTotalChunks = 384;  // 2/3 land on the downed server: 256
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  reg->ResetAll();
  Network net;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kServers; ++i) {
    nodes.push_back(net.AddNode("petal" + std::to_string(i)));
  }
  PetalServerOptions options;
  options.disk.timing_enabled = false;  // switched on before the restart
  // Faster than the RZ29 defaults, with the same seek-vs-transfer
  // structure.
  options.disk.seek_time = Duration{2000};
  options.disk.transfer_bps = 12.0 * (1 << 20);
  std::vector<std::unique_ptr<PetalServerDurable>> states;
  std::vector<std::unique_ptr<PetalServer>> servers;
  for (int i = 0; i < kServers; ++i) {
    states.push_back(std::make_unique<PetalServerDurable>());
    servers.push_back(std::make_unique<PetalServer>(&net, nodes[i], nodes, nodes,
                                                    states.back().get(), options,
                                                    SystemClock::Get()));
  }
  PetalClient client(&net, net.AddNode("client"), nodes);
  RETURN_IF_ERROR(client.RefreshMap());
  ASSIGN_OR_RETURN(VdiskId vd, client.CreateVdisk());
  Bytes payload(kChunkSize, 0x5A);
  for (uint64_t c = 0; c < kTotalChunks; ++c) {
    RETURN_IF_ERROR(client.Write(vd, c * kChunkSize, payload));
  }
  // Kill server 0 and overwrite everything: chunks placed on it go stale.
  net.SetNodeUp(nodes[0], false);
  Bytes payload2(kChunkSize, 0xC3);
  for (uint64_t c = 0; c < kTotalChunks; ++c) {
    RETURN_IF_ERROR(client.Write(vd, c * kChunkSize, payload2));
  }

  for (auto& state : states) {
    std::lock_guard<std::mutex> guard(state->disks_mu);
    for (auto& disk : state->disks) {
      disk->set_timing(true);
    }
  }
  LinkParams link;
  link.latency = Duration{300};
  link.bandwidth_bps = 17.0 * (1 << 20);  // 155 Mbit/s ATM
  for (NodeId n : nodes) {
    net.SetLinkParams(n, link);
  }

  obs::Counter* pulled = reg->GetCounter("petal.resync_bytes");
  uint64_t bytes_before = pulled->value();
  servers[0]->SetReady(false);
  net.SetNodeUp(nodes[0], true);
  double t0 = NowSeconds();
  RETURN_IF_ERROR(servers[0]->ResyncFromPeers());
  double secs = NowSeconds() - t0;
  uint64_t bytes = pulled->value() - bytes_before;
  return Table{"chunks_pulled,bytes,resync_s,mb_s,inflight_peak",
               {{Fmt("%llu,%llu,%.3f,%.2f,%lld",
                     static_cast<unsigned long long>(bytes / kChunkSize),
                     static_cast<unsigned long long>(bytes), secs,
                     static_cast<double>(bytes) / (1 << 20) / secs,
                     static_cast<long long>(
                         reg->GetGauge("petal.resync_inflight_peak")->value()))}}};
}

// ---- Small ops: the sync-log path under load ----
// 4 machines x 4 workers run an open-loop stream of create / write 1 KB /
// stat / unlink cycles against a sync-log mount at a swept offered load.
// Arrivals are scheduled and each cycle's latency runs from its scheduled
// start, so queueing shows in the tail instead of being absorbed by a closed
// loop. Concurrent log flushers of one mount share the leader's Petal write
// (group commit); the group_commits and batched_flushes columns count them.

constexpr int kNodes = 4;
constexpr int kWorkersPerNode = 4;
constexpr int kOpsPerCycle = 4;
constexpr double kLoadSeconds = 2.5;
constexpr double kGraceSeconds = 4.0;   // drain backlog after the window closes
constexpr double kSloMs = 50.0;         // goodput bar: schedule-to-done budget
constexpr double kWarmupSeconds = 0.5;  // cold locks/allocator; excluded from stats

struct LoadResult {
  double achieved_ops_s = 0;  // ops completed inside the window
  double goodput_ops_s = 0;   // ...that also met the 50 ms schedule-to-done SLO
  double msgs_per_cycle = 0;  // cluster-wide network messages per op cycle
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  uint64_t failed_cycles = 0;  // any of the four ops failed; not scored
  uint64_t group_commits = 0;
  uint64_t batched_flushes = 0;
};

double Pct(std::vector<double>& v, double p) {
  if (v.empty()) {
    return 0;
  }
  size_t i = static_cast<size_t>(p * (v.size() - 1));
  std::nth_element(v.begin(), v.begin() + i, v.end());
  return v[i];
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default()->GetCounter(name)->value();
}

StatusOr<LoadResult> RunLoad(double offered_cycles_s, bool record = false) {
  obs::MetricsRegistry::Default()->ResetAll();
  ClusterOptions options = PaperClusterOptions(/*nvram=*/false);
  // Measured runs keep the flight recorder off (capture would distort the
  // tails); one instrumented pass at the end feeds the trace digest.
  options.flight_recorder = record;
  options.node.fs.sync_log = true;
  ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, StartCluster(options, kNodes));
  // Private per-worker directories: the sweep measures per-op cost, not
  // cross-node directory lock contention.
  for (int m = 0; m < kNodes; ++m) {
    for (int k = 0; k < kWorkersPerNode; ++k) {
      RETURN_IF_ERROR(
          cluster->fs(m)->Mkdir("/w" + std::to_string(m) + "_" + std::to_string(k)));
    }
  }

  const int workers = kNodes * kWorkersPerNode;
  const double interval_s = workers / offered_cycles_s;  // per-worker spacing
  std::mutex lat_mu;
  std::vector<double> latencies_ms;
  // Only cycles that finish inside the window count toward achieved ops/s:
  // an overloaded config gets no credit for draining its backlog later.
  std::atomic<uint64_t> in_window_cycles{0};
  std::atomic<uint64_t> slo_cycles{0};
  std::atomic<uint64_t> failed_cycles{0};
  auto t0 = std::chrono::steady_clock::now();
  auto warmup_end = t0 + std::chrono::duration<double>(kWarmupSeconds);
  auto window_end = t0 + std::chrono::duration<double>(kLoadSeconds);
  auto hard_end = window_end + std::chrono::duration<double>(kGraceSeconds);
  RunThreads(workers, [&](int w) {
    FrangipaniFs* fs = cluster->fs(w / kWorkersPerNode);
    std::string dir =
        "/w" + std::to_string(w / kWorkersPerNode) + "_" + std::to_string(w % kWorkersPerNode);
    Bytes payload(1024, static_cast<uint8_t>(w));
    std::vector<double> local_ms;
    // Stagger workers across one interval so arrivals interleave instead of
    // arriving in machine-wide bursts.
    auto next = t0 + std::chrono::duration<double>(interval_s * w / workers);
    for (int i = 0; next < window_end; ++i) {  // open loop: the schedule ends it
      std::this_thread::sleep_until(next);
      if (std::chrono::steady_clock::now() > hard_end) {
        break;  // saturated far beyond the window; stop draining
      }
      std::string path = dir + "/f" + std::to_string(i);
      auto ino = fs->Create(path);
      bool ok = ino.ok();
      if (ok) {
        ok = fs->Write(*ino, 0, payload).ok();
        ok = fs->Stat(path).ok() && ok;
        ok = fs->Unlink(path).ok() && ok;
      }
      auto done = std::chrono::steady_clock::now();
      double ms = std::chrono::duration<double, std::milli>(done - next).count();
      if (!ok) {
        failed_cycles.fetch_add(1);
      } else if (next >= warmup_end) {
        local_ms.push_back(ms);
        if (done <= window_end) {
          in_window_cycles.fetch_add(1);
          if (ms <= kSloMs) {
            slo_cycles.fetch_add(1);
          }
        }
      }
      next += std::chrono::duration<double>(interval_s);
    }
    std::lock_guard<std::mutex> guard(lat_mu);
    latencies_ms.insert(latencies_ms.end(), local_ms.begin(), local_ms.end());
  });

  LoadResult r;
  if (!latencies_ms.empty()) {
    // Node ids are dense and small; probing unregistered ids reads zeros.
    uint64_t msgs = 0;
    for (int n = 0; n < 64; ++n) {
      msgs += CounterValue("net.n" + std::to_string(n) + ".msgs");
    }
    r.msgs_per_cycle = static_cast<double>(msgs) / latencies_ms.size();
  }
  double measured_s = kLoadSeconds - kWarmupSeconds;
  r.achieved_ops_s = in_window_cycles.load() * kOpsPerCycle / measured_s;
  r.goodput_ops_s = slo_cycles.load() * kOpsPerCycle / measured_s;
  r.p50_ms = Pct(latencies_ms, 0.50);
  r.p95_ms = Pct(latencies_ms, 0.95);
  r.p99_ms = Pct(latencies_ms, 0.99);
  r.failed_cycles = failed_cycles.load();
  r.group_commits = CounterValue("wal.group_commits");
  r.batched_flushes = CounterValue("wal.group_commit_batched");
  return r;
}

StatusOr<Table> SmallOps() {
  Table t{"offered_ops_s,achieved_ops_s,goodput_ops_s,msgs_per_cycle,p50_ms,p95_ms,p99_ms,"
          "failed_cycles,group_commits,batched_flushes",
          {}};
  for (double cycles : {250.0, 500.0, 1000.0, 2000.0}) {
    ASSIGN_OR_RETURN(LoadResult r, RunLoad(cycles));
    t.rows.push_back({Fmt("%.0f,%.1f,%.1f,%.2f,%.3f,%.3f,%.3f,%llu,%llu,%llu",
                          cycles * kOpsPerCycle, r.achieved_ops_s, r.goodput_ops_s,
                          r.msgs_per_cycle, r.p50_ms, r.p95_ms, r.p99_ms,
                          static_cast<unsigned long long>(r.failed_cycles),
                          static_cast<unsigned long long>(r.group_commits),
                          static_cast<unsigned long long>(r.batched_flushes)),
                      static_cast<int>(r.failed_cycles)});
  }
  // One more pass with the flight recorder on, at the top of the sweep, so
  // the trace digest has the wal.group_commit evidence. Its timings are not
  // reported; its failures still refuse the CSV.
  ASSIGN_OR_RETURN(LoadResult capture, RunLoad(2000.0, /*record=*/true));
  if (capture.failed_cycles > 0) {
    return Internal("capture pass: " + std::to_string(capture.failed_cycles) +
                    " failed cycles");
  }
  return t;
}

// ---- the experiment table and main() ----

struct Experiment {
  const char* name;  // also the CSV's name
  const char* what;
  StatusOr<Table> (*run)();
};

const Experiment kExperiments[] = {
    {"table1_mab", "Table 1: MAB elapsed seconds per phase, one machine", Table1Mab},
    {"table2_ops", "Table 2: metadata op latency, median and p90 us, one machine", Table2Ops},
    {"table3_throughput", "Table 3: large-file MB/s and CPU, one machine; §9.2 small reads",
     Table3Throughput},
    {"read_latency", "Read latency: cold 64 KB reads, sequential and skipping, one machine",
     ReadLatency},
    {"fig5_mab_scaling", "Figure 5: MAB scaling, average seconds per machine", Fig5MabScaling},
    {"fig6_large_transfer", "Figure 6 probe: 1 MB scatter-gathered Petal read",
     [] { return LargeTransfer(/*write=*/false); }},
    {"fig6_read_scaling", "Figure 6: uncached read scaling, aggregate MB/s", Fig6ReadScaling},
    {"fig7_large_transfer", "Figure 7 probe: 1 MB scatter-gathered, replicated Petal write",
     [] { return LargeTransfer(/*write=*/true); }},
    {"fig7_write_scaling", "Figure 7: write scaling, aggregate MB/s", Fig7WriteScaling},
    {"fig8_rw_contention", "Figure 8: reader/writer contention, with vs without read-ahead",
     Fig8RwContention},
    {"fig9_sharing_size", "Figure 9: reader/writer contention vs shared-data size",
     Fig9SharingSize},
    {"fig10_ww_contention", "Figure 10: write/write sharing, same file vs private files",
     Fig10WwContention},
    {"fig10_disjoint", "Figure 10 follow-up: extent locks, disjoint vs same region of one file",
     Fig10Disjoint},
    {"ablation_lockservice", "Ablation §6: the three lock services", AblationLockService},
    {"ablation_synclog", "Ablation §4: asynchronous vs synchronous logging", AblationSyncLog},
    {"ablation_replication", "Ablation §2.3: Petal replication cost", AblationReplication},
    {"server_scaling", "Server scaling: 64 KB ops on one sharded Petal server", ServerScaling},
    {"recovery", "Recovery: striped resync after a Petal server restart", Recovery},
    {"smallops", "Small ops: open-loop sync-log cycles at a swept offered load", SmallOps},
};

}  // namespace

int main(int argc, char** argv) {
  std::string mode = argc > 1 ? argv[1] : "";
  if (argc == 2 && mode == "--list") {
    for (const Experiment& e : kExperiments) {
      std::printf("%s\n", e.name);
    }
    return 0;
  }
  const Experiment* exp = nullptr;
  if (argc == 3 && mode == "--exp") {
    for (const Experiment& e : kExperiments) {
      if (e.name == std::string(argv[2])) {
        exp = &e;
      }
    }
  }
  if (exp == nullptr) {
    std::fprintf(stderr, "usage: fgp_bench --list | --exp <name>\n");
    return 2;
  }

  std::printf("%s\n\n", exp->what);
  StatusOr<Table> table = exp->run();
  if (!table.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", exp->name, table.status().ToString().c_str());
    return 1;
  }
  std::printf("%s  (failed ops)\n", table->header.c_str());
  std::vector<std::string> csv;
  int failed_rows = 0;
  for (const Row& row : table->rows) {
    std::printf("%s  (%d)\n", row.csv.c_str(), row.failed);
    csv.push_back(row.csv);
    failed_rows += row.failed > 0;
  }
  if (failed_rows > 0) {
    std::fprintf(stderr, "%s: %d rows had failed ops: not writing the CSV\n", exp->name,
                 failed_rows);
    return 1;
  }
  WriteCsv(exp->name, table->header, csv);
  return 0;
}
