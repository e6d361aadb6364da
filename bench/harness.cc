#include "bench/harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

namespace frangipani {
namespace bench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ClusterOptions PaperClusterOptions(bool nvram) {
  ClusterOptions options;
  options.petal_servers = 7;    // §9.1
  options.disks_per_petal = 9;  // 9 RZ29 drives per server
  options.lock_servers = 3;
  options.lock_kind = LockServiceKind::kDistributed;
  options.enable_timing = true;
  options.nvram = nvram;
  options.link = LinkParams{Duration(200), 17.0 * (1 << 20)};  // ~155 Mbit/s
  options.disk.seek_time = Duration(9000);                     // 9 ms
  options.disk.transfer_bps = 6.0 * (1 << 20);                 // 6 MB/s
  options.lease_duration = Duration(30'000'000);               // paper: 30 s
  options.node.sync_period = Duration(1'000'000);   // update demon (scaled 30 s -> 1 s)
  options.node.log_flush_period = Duration(100'000);
  return options;
}

AdvFsOptions PaperAdvFsOptions(bool nvram) {
  AdvFsOptions options;
  options.num_disks = 8;  // two fast SCSI strings, 8 RZ29s
  options.disk.seek_time = Duration(9000);
  options.disk.transfer_bps = 6.0 * (1 << 20);
  options.disk.nvram = nvram;
  options.disk.timing_enabled = true;
  options.string_bps = 7.5 * (1 << 20);  // two fast-SCSI strings (see header)
  return options;
}

namespace {

void SpinCpu(double seconds) {
  // Models compilation think time. Each simulated machine has its own CPU in
  // the paper's testbed, so this must not contend on the single host core:
  // model it as a sleep (the same real-time dilation used for disks/links).
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

Bytes SourceText(size_t n, uint32_t seed) {
  Bytes out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i * 31 + seed * 7) % 251);
  }
  return out;
}

}  // namespace

StatusOr<MabResult> RunMab(FrangipaniFs* fs, const std::string& base, MabConfig config) {
  MabResult result;
  RETURN_IF_ERROR(fs->Mkdir(base));

  // Phase 1: create directories.
  double t0 = NowSeconds();
  for (int d = 0; d < config.dirs; ++d) {
    RETURN_IF_ERROR(fs->Mkdir(base + "/dir" + std::to_string(d)));
  }
  result.create_dirs_s = NowSeconds() - t0;

  // Phase 2: copy files into the tree.
  t0 = NowSeconds();
  std::vector<std::string> paths;
  for (int f = 0; f < config.files; ++f) {
    std::string path =
        base + "/dir" + std::to_string(f % config.dirs) + "/src" + std::to_string(f) + ".c";
    ASSIGN_OR_RETURN(uint64_t ino, fs->Create(path));
    RETURN_IF_ERROR(fs->Write(ino, 0, SourceText(config.file_bytes, f)));
    paths.push_back(path);
  }
  if (config.fsync_copies) {
    RETURN_IF_ERROR(fs->SyncAll());
  }
  result.copy_files_s = NowSeconds() - t0;

  // Phase 3: directory status (recursive stat of every entry).
  t0 = NowSeconds();
  for (int d = 0; d < config.dirs; ++d) {
    ASSIGN_OR_RETURN(std::vector<DirEntry> entries,
                     fs->Readdir(base + "/dir" + std::to_string(d)));
    for (const DirEntry& e : entries) {
      RETURN_IF_ERROR(fs->StatIno(e.ino).status());
    }
  }
  result.dir_status_s = NowSeconds() - t0;

  // Phase 4: scan every byte of every file (uncached, as after a fresh
  // mount).
  RETURN_IF_ERROR(fs->DropCaches());
  t0 = NowSeconds();
  Bytes buf;
  for (const std::string& path : paths) {
    ASSIGN_OR_RETURN(uint64_t ino, fs->Lookup(path));
    RETURN_IF_ERROR(fs->Read(ino, 0, config.file_bytes, &buf).status());
  }
  result.scan_files_s = NowSeconds() - t0;

  // Phase 5: "compile": read the sources again, burn CPU, emit objects.
  t0 = NowSeconds();
  for (const std::string& path : paths) {
    ASSIGN_OR_RETURN(uint64_t ino, fs->Lookup(path));
    RETURN_IF_ERROR(fs->Read(ino, 0, config.file_bytes, &buf).status());
  }
  SpinCpu(config.compile_cpu_s);
  for (int o = 0; o < config.compile_outputs; ++o) {
    std::string path = base + "/dir" + std::to_string(o % config.dirs) + "/obj" +
                       std::to_string(o) + ".o";
    ASSIGN_OR_RETURN(uint64_t ino, fs->Create(path));
    RETURN_IF_ERROR(fs->Write(ino, 0, SourceText(config.file_bytes * 2, o)));
  }
  result.compile_s = NowSeconds() - t0;
  return result;
}

StatusOr<double> StreamWrite(FrangipaniFs* fs, uint64_t ino, uint64_t total) {
  Bytes unit(64 * 1024, 0xA5);
  double t0 = NowSeconds();
  for (uint64_t off = 0; off < total; off += unit.size()) {
    RETURN_IF_ERROR(fs->Write(ino, off, unit));
  }
  RETURN_IF_ERROR(fs->Fsync(ino));
  double secs = NowSeconds() - t0;
  return static_cast<double>(total) / secs / (1 << 20);
}

StatusOr<double> StreamRead(FrangipaniFs* fs, uint64_t ino, uint64_t total) {
  Bytes buf;
  double t0 = NowSeconds();
  uint64_t got = 0;
  for (uint64_t off = 0; off < total; off += 64 * 1024) {
    ASSIGN_OR_RETURN(size_t n, fs->Read(ino, off, 64 * 1024, &buf));
    got += n;
    if (n == 0) {
      break;
    }
  }
  double secs = NowSeconds() - t0;
  return static_cast<double>(got) / secs / (1 << 20);
}

void CpuMeter::Start() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  cpu_start_ = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 + usage.ru_stime.tv_sec +
               usage.ru_stime.tv_usec * 1e-6;
  wall_start_ = NowSeconds();
}

std::pair<double, double> CpuMeter::Stop() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  double cpu = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6 +
               usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6 - cpu_start_;
  double wall = NowSeconds() - wall_start_;
  return {wall, wall > 0 ? cpu / wall : 0};
}

void WriteCsv(const std::string& name, const std::string& header,
              const std::vector<std::string>& rows) {
  std::filesystem::create_directories("bench_results");
  std::string path = "bench_results/" + name + ".csv";
  std::ofstream out(path, std::ios::trunc);
  out << header << "\n";
  for (const std::string& row : rows) {
    out << row << "\n";
  }
  std::printf("[csv written to %s]\n", path.c_str());
  WriteMetricsJson(name);
  WriteTraceJson(name);
  WriteTraceDigest(name);
}

void WriteMetricsJson(const std::string& name) {
  std::filesystem::create_directories("bench_results");
  std::string path = "bench_results/" + name + ".metrics.json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::MetricsRegistry::Default()->ExportJson() << "\n";
  std::printf("[metrics written to %s]\n", path.c_str());
}

namespace {

std::mutex g_sidecar_mu;
std::set<std::string>* g_written_traces = new std::set<std::string>();

}  // namespace

void WriteTraceJson(const std::string& name) {
  {
    std::lock_guard<std::mutex> guard(g_sidecar_mu);
    if (!g_written_traces->insert(name).second) {
      return;  // an earlier (mid-run) dump for this name pinned the window
    }
  }
  std::filesystem::create_directories("bench_results");
  std::string path = "bench_results/" + name + ".trace.json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::Recorder::Default()->DumpJson() << "\n";
  std::printf("[trace written to %s]\n", path.c_str());
}

void WriteTraceDigest(const std::string& name) {
  // Aggregate the live ring snapshot by span name. The rings hold the most
  // recent window of activity per thread, which is exactly what the raw
  // trace dump would show; the digest trades the per-event timeline for a
  // diffable per-span rollup.
  struct Agg {
    uint64_t spans = 0;
    uint64_t instants = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const obs::TraceEvent& e : obs::Recorder::Default()->Snapshot()) {
    if (e.name == nullptr) {
      continue;
    }
    Agg& a = by_name[e.name];
    if (e.kind == obs::EventKind::kInstant) {
      ++a.instants;
    } else {
      ++a.spans;
      a.total_ns += e.dur_ns;
      a.max_ns = std::max(a.max_ns, e.dur_ns);
    }
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return x.second.total_ns > y.second.total_ns;
  });

  std::filesystem::create_directories("bench_results");
  std::string path = "bench_results/" + name + ".trace_digest.txt";
  std::ofstream out(path, std::ios::trunc);
  out << "# flight-recorder digest for " << name << "\n";
  out << "# span  count  total_us  max_us  (instants listed with count only)\n";
  char line[256];
  for (const auto& [span, a] : rows) {
    if (a.spans > 0) {
      std::snprintf(line, sizeof(line), "%-28s %8llu %12.0f %10.0f\n", span.c_str(),
                    static_cast<unsigned long long>(a.spans), a.total_ns / 1e3,
                    a.max_ns / 1e3);
    } else {
      std::snprintf(line, sizeof(line), "%-28s %8llu (instant)\n", span.c_str(),
                    static_cast<unsigned long long>(a.instants));
    }
    out << line;
  }
  // Per op: where its time went, by layer, over every traced call.
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  std::map<std::string, double> values;
  reg->SnapshotValues(&values);
  out << "\n# op, its calls, then op.<op>.<layer>_us per layer: p50 / mean over the\n"
         "# op's calls (in parentheses, the calls that reached the layer)\n";
  for (const auto& [metric, count] : values) {
    // Each op's call counter is "op.<op>.count"; histogram rollups have
    // more dots ("op.<op>.total_us.count").
    if (!metric.starts_with("op.") || !metric.ends_with(".count") || count == 0) {
      continue;
    }
    std::string op = metric.substr(3, metric.size() - 3 - 6);
    if (op.find('.') != std::string::npos) {
      continue;
    }
    std::snprintf(line, sizeof(line), "%-14s %10.0f", op.c_str(), count);
    out << line;
    for (const char* layer : {"fs", "lock", "wal", "petal", "net"}) {
      Histogram* h = reg->GetHistogram("op." + op + "." + layer + "_us");
      std::snprintf(line, sizeof(line), "  %s %.0f / %.0f (%llu)", layer, h->Percentile(0.5),
                    h->Mean(), static_cast<unsigned long long>(h->count()));
      out << line;
    }
    out << "\n";
  }
  std::vector<obs::Recorder::SlowOp> slowest = obs::Recorder::Default()->SlowestOpPerName();
  if (!slowest.empty()) {
    out << "\n# slowest captured op of each op name (critical path marked with *)\n";
    for (const obs::Recorder::SlowOp& op : slowest) {
      out << obs::Recorder::SlowOpTree(op);
    }
  }
  std::printf("[trace digest written to %s]\n", path.c_str());
}

}  // namespace bench
}  // namespace frangipani
