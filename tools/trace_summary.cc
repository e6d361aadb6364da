// CI smoke check for the flight recorder: runs a tiny in-process cluster
// with an aggressive slow-op threshold so every op is promoted, then prints
// the critical path of the slowest captured op and writes a Perfetto trace.
// It also checks that a large file's unlink leaves the log flush and the
// Petal decommit to the background fs.decommit span.
// Exits nonzero if the recorder captured nothing (instrumentation broke) or
// the trace dump is malformed.
//
// Usage: trace_summary [output.trace.json]
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/server/cluster.h"

using namespace frangipani;

int main(int argc, char** argv) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.slow_op_us = 1;  // promote everything: this is a capture smoke test
  // Open a generous commit window so the concurrent-fsync phase below lands
  // multiple flushers in one group commit.
  opts.node.fs.wal.group_commit_us = 2000;
  Cluster cluster(opts);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "trace_summary: cluster start failed\n");
    return 1;
  }
  auto node0 = cluster.AddFrangipani();
  auto node1 = cluster.AddFrangipani();
  if (!node0.ok() || !node1.ok()) {
    std::fprintf(stderr, "trace_summary: mount failed\n");
    return 1;
  }

  // A write-shared file forces a revoke -> flush -> release -> grant chain
  // between the two nodes, exercising every instrumented layer. The two
  // nodes write adjacent 64 KB extents of one file: the first laps extend
  // the file under full-range data locks, later laps are pure overwrites
  // under byte-range extents, so the trace carries partial revokes too.
  auto created = (*node0)->fs()->Create("/shared");
  if (!created.ok()) {
    std::fprintf(stderr, "trace_summary: create failed\n");
    return 1;
  }
  Bytes unit(64 * 1024, 0xAB);
  for (int lap = 0; lap < 3; ++lap) {
    if (!(*node0)->fs()->Write(*created, 0, unit).ok() ||
        !(*node0)->fs()->Fsync(*created).ok() ||
        !(*node1)->fs()->Write(*created, unit.size(), unit).ok() ||
        !(*node1)->fs()->Fsync(*created).ok()) {
      std::fprintf(stderr, "trace_summary: shared writes failed\n");
      return 1;
    }
  }

  // Group-commit capture: several threads on node0 write private files and
  // fsync in lockstep, so concurrent FlushTo callers pile up on one log and a
  // leader gathers their records in a single framed write. Each lap appends,
  // so each fsync has an inode update (the new size) to log; an overwrite in
  // place logs nothing and its fsync never reaches the log. A few laps are
  // enough in practice; the retry loop keeps the smoke test deterministic.
  obs::Counter* group_commits =
      obs::MetricsRegistry::Default()->GetCounter("wal.group_commits");
  for (int round = 0; round < 20 && group_commits->value() == 0; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t, round] {
        std::string path = "/gc" + std::to_string(round) + "_" + std::to_string(t);
        auto ino = (*node0)->fs()->Create(path);
        if (!ino.ok()) return;
        Bytes payload(1024, static_cast<uint8_t>(t));
        for (int lap = 0; lap < 4; ++lap) {
          (void)(*node0)->fs()->Write(*ino, lap * payload.size(), payload);
          (void)(*node0)->fs()->Fsync(*ino);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  if (group_commits->value() == 0) {
    std::fprintf(stderr, "trace_summary: no WAL group commit observed\n");
    return 1;
  }

  // Deferred decommit: the unlink of a large file returns without flushing
  // the log or calling Petal; the worker's fs.decommit span carries both.
  // SyncAll waits for the worker.
  auto big = (*node0)->fs()->Create("/big");
  if (!big.ok() || !(*node0)->fs()->Write(*big, 0, Bytes(256 * 1024, 0xCD)).ok() ||
      !(*node0)->fs()->Fsync(*big).ok() || !(*node0)->fs()->Unlink("/big").ok() ||
      !(*node0)->fs()->SyncAll().ok()) {
    std::fprintf(stderr, "trace_summary: large-file unlink failed\n");
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
