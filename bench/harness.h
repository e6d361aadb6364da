// Shared benchmark harness: the paper-testbed cluster configuration (§9.1),
// the Modified Andrew Benchmark workload, streaming I/O helpers, CPU
// utilization accounting, and CSV emission.
//
// Absolute numbers are not expected to match the 1997 testbed; the harness
// reproduces the *shape* of every table and figure (who wins, by what
// factor, where curves flatten). Data sizes are scaled down so each
// experiment completes in seconds; the bottleneck structure (per-machine
// 155 Mbit/s links, 9 ms/6 MB/s disks, dual-write replication) matches the
// paper.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "src/baseline/advfs_like.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace bench {

// §9.1: seven Petal servers with 9 disks each, 155 Mbit/s (~17 MB/s) links,
// RZ29-like disks, distributed lock service.
ClusterOptions PaperClusterOptions(bool nvram);

// The AdvFS baseline: 8 striped local disks on two controllers.
AdvFsOptions PaperAdvFsOptions(bool nvram);

// ---- Modified Andrew Benchmark (MAB) ----
// Five phases over a private subtree. The compile phase is modeled as
// read-sources + CPU think time + write-objects (see DESIGN.md).
struct MabResult {
  double create_dirs_s = 0;
  double copy_files_s = 0;
  double dir_status_s = 0;
  double scan_files_s = 0;
  double compile_s = 0;
  double Total() const {
    return create_dirs_s + copy_files_s + dir_status_s + scan_files_s + compile_s;
  }
};

struct MabConfig {
  int dirs = 20;
  int files = 120;
  size_t file_bytes = 24 * 1024;
  int compile_outputs = 40;
  double compile_cpu_s = 0.25;  // workload-independent think time
  bool fsync_copies = true;     // the copy phase flushes its files (cp; sync)
};

StatusOr<MabResult> RunMab(FrangipaniFs* fs, const std::string& base, MabConfig config = {});

// ---- streaming I/O ----
// Writes `total` bytes sequentially in 64 KB units, then syncs; returns MB/s
// including the sync (steady-state write bandwidth).
StatusOr<double> StreamWrite(FrangipaniFs* fs, uint64_t ino, uint64_t total);
// Reads `total` bytes sequentially in 64 KB units; returns MB/s.
StatusOr<double> StreamRead(FrangipaniFs* fs, uint64_t ino, uint64_t total);

// ---- CPU utilization ----
// Process CPU time vs wall time between Start() and Stop(). The whole
// simulated cluster runs in this process, so this is an upper bound on any
// single machine's utilization; the paper's relative ordering still shows.
class CpuMeter {
 public:
  void Start();
  // Returns {wall_seconds, cpu_fraction}.
  std::pair<double, double> Stop();

 private:
  double wall_start_ = 0;
  double cpu_start_ = 0;
};

// ---- output ----
// Appends rows to bench_results/<name>.csv (header written on create).
// Also drops a metrics sidecar next to the CSV (see WriteMetricsJson).
void WriteCsv(const std::string& name, const std::string& header,
              const std::vector<std::string>& rows);

// Dumps the process-wide metrics registry (per-op latency breakdowns,
// per-layer histograms, per-node net counters) to
// bench_results/<name>.metrics.json so results can be correlated with the
// benchmark's CSV offline.
void WriteMetricsJson(const std::string& name);

// Dumps the process-wide flight recorder to bench_results/<name>.trace.json
// (Perfetto-loadable; see EXPERIMENTS.md). Called automatically by WriteCsv;
// a bench may also call it mid-run to pin an interesting window before later
// configs overwrite the rings — the first write for a name wins within one
// process.
void WriteTraceJson(const std::string& name);

// Writes a compact digest of the flight recorder to
// bench_results/<name>.trace_digest.txt: per-span counts with total/max
// duration, instant-event counts, each op's p50 and mean
// op.<op>.{fs,lock,wal,petal,net}_us with the number of calls that reached
// each layer, and the critical path of the slowest captured op of each op
// name. The raw .trace.json sidecar is multi-MB and gitignored (uploaded as
// a CI artifact only); the digest is the small committable evidence. Called
// automatically by WriteCsv.
void WriteTraceDigest(const std::string& name);

double NowSeconds();

}  // namespace bench
}  // namespace frangipani

#endif  // BENCH_HARNESS_H_
