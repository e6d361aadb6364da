// CI smoke check for the flight recorder: runs a tiny in-process cluster
// with an aggressive slow-op threshold so every op is promoted, then prints
// the critical path of the slowest captured op and writes a Perfetto trace.
// It also checks that a large file's unlink leaves the log flush and the
// Petal decommit to the background fs.decommit span.
// Exits nonzero if any file-system call fails, if the recorder captured
// nothing (instrumentation broke) or if the trace dump is malformed.
//
// Usage: trace_summary [output.trace.json]
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/server/cluster.h"

using namespace frangipani;

namespace {

// Failed calls; the concurrent phase's threads cannot return from main.
std::atomic<int> g_failed_calls{0};

// Prints a failed call with its status and counts it.
bool CallOk(const char* call, const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "trace_summary: %s failed: %s\n", call, st.ToString().c_str());
    g_failed_calls.fetch_add(1);
  }
  return st.ok();
}

}  // namespace

int main(int argc, char** argv) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.slow_op_us = 1;  // promote everything: this is a capture smoke test
  Cluster cluster(opts);
  if (!CallOk("Start", cluster.Start())) {
    return 1;
  }
  auto node0 = cluster.AddFrangipani();
  auto node1 = cluster.AddFrangipani();
  if (!CallOk("AddFrangipani", node0.status()) || !CallOk("AddFrangipani", node1.status())) {
    return 1;
  }
  FrangipaniFs* fs0 = (*node0)->fs();
  FrangipaniFs* fs1 = (*node1)->fs();

  // A write-shared file forces a revoke -> flush -> release -> grant chain
  // between the two nodes, exercising every instrumented layer. The two
  // nodes write adjacent 64 KB extents of one file: the first laps extend
  // the file under full-range data locks, later laps are pure overwrites
  // under byte-range extents, so the trace carries partial revokes too.
  auto created = fs0->Create("/shared");
  if (!CallOk("Create", created.status())) {
    return 1;
  }
  Bytes unit(64 * 1024, 0xAB);
  for (int lap = 0; lap < 3; ++lap) {
    if (!CallOk("Write", fs0->Write(*created, 0, unit)) ||
        !CallOk("Fsync", fs0->Fsync(*created)) ||
        !CallOk("Write", fs1->Write(*created, unit.size(), unit)) ||
        !CallOk("Fsync", fs1->Fsync(*created))) {
      return 1;
    }
  }

  // Group-commit capture: four threads on node0 write private files and
  // fsync in lockstep, a barrier before each fsync. For this phase node0's
  // link carries a 10 ms latency, so the first fsync's log write is still
  // in flight when the other three reach the log: they queue behind it and
  // its one write covers their records. Each lap appends, so each fsync has
  // an inode update (the new size) to log; an overwrite in place logs
  // nothing and its fsync never reaches the log.
  constexpr int kFsyncThreads = 4;
  constexpr int kLaps = 4;
  obs::Counter* group_commits = obs::MetricsRegistry::Default()->GetCounter("wal.group_commits");
  const uint64_t group_commits_before = group_commits->value();
  cluster.net()->SetLinkParams(cluster.frangipani_node(0),
                               LinkParams{.latency = std::chrono::milliseconds(10)});
  std::barrier lockstep(kFsyncThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kFsyncThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ino = fs0->Create("/gc" + std::to_string(t));
      if (!CallOk("Create", ino.status())) {
        lockstep.arrive_and_drop();
        return;
      }
      Bytes payload(1024, static_cast<uint8_t>(t));
      for (int lap = 0; lap < kLaps; ++lap) {
        bool wrote = CallOk("Write", fs0->Write(*ino, lap * payload.size(), payload));
        lockstep.arrive_and_wait();
        if (wrote) {
          CallOk("Fsync", fs0->Fsync(*ino));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  cluster.net()->SetLinkParams(cluster.frangipani_node(0), LinkParams{});
  if (g_failed_calls.load() > 0) {
    std::fprintf(stderr, "trace_summary: %d calls failed in the concurrent-fsync phase\n",
                 g_failed_calls.load());
    return 1;
  }
  if (group_commits->value() == group_commits_before) {
    std::fprintf(stderr, "trace_summary: no WAL group commit in the concurrent-fsync phase\n");
    return 1;
  }

  // Deferred decommit: the unlink of a large file returns without flushing
  // the log or calling Petal; the worker's fs.decommit span carries both.
  // SyncAll waits for the worker.
  auto big = fs0->Create("/big");
  if (!CallOk("Create", big.status()) ||
      !CallOk("Write", fs0->Write(*big, 0, Bytes(256 * 1024, 0xCD))) ||
      !CallOk("Fsync", fs0->Fsync(*big)) || !CallOk("Unlink", fs0->Unlink("/big")) ||
      !CallOk("SyncAll", fs0->SyncAll())) {
    return 1;
  }

  obs::Recorder* rec = obs::Recorder::Default();
  for (const obs::Recorder::SlowOp& op : rec->SlowestOpPerName()) {
    if (std::string(op.op) != "unlink") {
      continue;
    }
    for (const obs::TraceEvent& e : op.events) {
      std::string name = e.name;
      if (name == "wal.flush" || name == "petal.decommit") {
        std::fprintf(stderr, "trace_summary: unlink's span tree holds %s\n", e.name);
        return 1;
      }
    }
  }
  std::string summary = rec->SlowestOpSummary();
  if (summary.empty()) {
    std::fprintf(stderr, "trace_summary: no slow op captured (recorder broken?)\n");
    return 1;
  }
  std::printf("%s", summary.c_str());

  std::string json = cluster.DumpTraceJson();
  if (json.size() < 2 || json.front() != '{' || json.back() != '}' ||
      json.find("\"traceEvents\"") == std::string::npos ||
      json.find("lock.acquire") == std::string::npos ||
      json.find("wal.flush") == std::string::npos ||
      json.find("petal.write") == std::string::npos ||
      json.find("net.tx") == std::string::npos) {
    std::fprintf(stderr, "trace_summary: trace dump missing expected spans\n");
    return 1;
  }
  // Byte-range lock instrumentation: the overwrite laps above revoke only
  // the contended extent, so both the clerk-side instant and the FS-side
  // ranged flush span must appear.
  if (json.find("lock.partial_revoke") == std::string::npos ||
      json.find("fs.range_revoke_flush") == std::string::npos) {
    std::fprintf(stderr, "trace_summary: trace dump missing range-lock spans\n");
    return 1;
  }
  // Batching instrumentation: the concurrent-fsync phase must have recorded a
  // group commit instant.
  if (json.find("wal.group_commit") == std::string::npos) {
    std::fprintf(stderr, "trace_summary: trace dump missing batching spans\n");
    return 1;
  }
  if (json.find("fs.decommit") == std::string::npos ||
      json.find("petal.decommit") == std::string::npos) {
    std::fprintf(stderr, "trace_summary: trace dump missing decommit spans\n");
    return 1;
  }
  if (argc > 1) {
    if (!cluster.DumpTraceToFile(argv[1]).ok()) {
      std::fprintf(stderr, "trace_summary: cannot write %s\n", argv[1]);
      return 1;
    }
    std::printf("[trace written to %s]\n", argv[1]);
  }
  return 0;
}
