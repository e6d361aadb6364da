// Whole-installation harness: assembles Petal servers, lock servers, and
// Frangipani server machines on one simulated network; drives crash /
// restart / partition scenarios for tests, benchmarks, and examples.
//
// The default shape mirrors the paper's testbed: 7 Petal servers with 9
// disks each, a distributed lock service, and N Frangipani machines, all on
// 155 Mbit/s-class point-to-point links. Timing models are off by default
// (unit tests) and enabled by benchmarks.
#ifndef SRC_SERVER_CLUSTER_H_
#define SRC_SERVER_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/fs/frangipani_fs.h"
#include "src/lock/lock_server.h"
#include "src/lock/policies.h"
#include "src/net/network.h"
#include "src/petal/petal_server.h"
#include "src/server/node.h"

namespace frangipani {

// The lock service variant a cluster runs (§6). Only the servers differ:
// every clerk routes the same way (src/lock/clerk.h).
enum class LockServiceKind {
  kCentralized,
  kPrimaryBackup,
  kDistributed,
};

struct ClusterOptions {
  int petal_servers = 7;
  int disks_per_petal = 9;
  int lock_servers = 3;           // 1 for centralized, 2 for primary/backup
  LockServiceKind lock_kind = LockServiceKind::kDistributed;
  Duration lease_duration = kDefaultLeaseDuration;

  bool enable_timing = false;     // disk + link models (benchmarks)
  bool nvram = false;             // PrestoServe on the Petal servers
  LinkParams link{};              // per-node NIC (benchmarks set 17 MB/s etc.)
  PhysDiskParams disk{};          // per-physical-disk model

  Geometry geometry{};
  NodeOptions node{};

  // ---- flight recorder ----
  // Start() enables the process-wide event recorder; spans from every layer
  // land in per-thread rings, exportable via DumpTraceJson. Always-on slow-op
  // capture promotes ops slower than `slow_op_us` to a keep-list that
  // survives ring overwrite (0 disables promotion).
  bool flight_recorder = true;
  int64_t slow_op_us = 20'000;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  // Brings up Petal + lock service, creates the shared virtual disk, mkfs.
  Status Start();

  // Adds a Frangipani server machine and mounts the file system on it (§7:
  // needs to be told only which virtual disk and where the lock service is).
  StatusOr<FrangipaniNode*> AddFrangipani();
  StatusOr<FrangipaniNode*> AddFrangipani(NodeOptions node_options);

  // ---- failure injection ----
  Status CrashFrangipani(size_t idx);     // node down, demons stopped, no flush
  Status RestartFrangipani(size_t idx);   // fresh mount on the same machine
  Status CrashPetal(size_t idx);
  Status RestartPetal(size_t idx);        // resyncs chunks before serving
  Status CrashLockServer(size_t idx);
  Status RestartLockServer(size_t idx);
  void PartitionFrangipani(size_t idx, bool partitioned);  // isolate from all

  // ---- accessors ----
  Network* net() { return &net_; }
  Clock* clock() const { return clock_; }
  VdiskId vdisk() const { return vdisk_; }
  const Geometry& geometry() const { return options_.geometry; }
  size_t frangipani_count() const { return nodes_.size(); }
  FrangipaniNode* node(size_t idx) { return nodes_[idx].get(); }
  FrangipaniFs* fs(size_t idx) { return nodes_[idx]->fs(); }
  PetalClient* admin_petal() { return admin_petal_.get(); }
  PetalServer* petal_server(size_t idx) { return petal_runtime_[idx].get(); }
  PetalServerDurable* petal_durable(size_t idx) { return petal_state_[idx].get(); }
  LockServer* lock_server(size_t idx) { return lock_servers_[idx].get(); }
  // Membership administration of the distributed lock service; only valid
  // when lock_kind is kDistributed.
  DistributedPolicy* dist_policy(size_t idx) { return dist_policies_[idx]; }
  NodeId petal_node(size_t idx) const { return petal_nodes_[idx]; }
  NodeId lock_node(size_t idx) const { return lock_nodes_[idx]; }
  NodeId frangipani_node(size_t idx) const { return frangipani_nodes_[idx]; }
  std::vector<NodeId> petal_nodes() const { return petal_nodes_; }
  std::vector<NodeId> lock_nodes() const { return lock_nodes_; }
  const ClusterOptions& options() const { return options_; }

  // Sweeps expired leases on every lock server (tests call this instead of
  // waiting for a background detector).
  void CheckLeases();

  // ---- observability ----
  // Snapshot of the process-wide metrics registry (counters, gauges,
  // histogram summaries). Note: the registry is global, so in a process
  // hosting several Clusters the dump covers all of them.
  std::string DumpMetrics() const;       // human-readable text
  std::string DumpMetricsJson() const;
  Status DumpMetricsToFile(const std::string& path) const;  // JSON

  // Chrome trace-event JSON from the process-wide flight recorder: the most
  // recent window of spans per thread plus every captured slow op, with one
  // Perfetto process row per simulated node. Like the metrics registry, the
  // recorder is global — a process hosting several Clusters dumps all of
  // them (node ids stay distinct, names reflect the latest AddNode).
  std::string DumpTraceJson() const;
  Status DumpTraceToFile(const std::string& path) const;

 private:
  ClusterOptions options_;
  Network net_;
  Clock* clock_;

  std::vector<NodeId> petal_nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> petal_state_;
  std::vector<std::unique_ptr<PetalServer>> petal_runtime_;

  std::vector<NodeId> lock_nodes_;
  std::vector<std::unique_ptr<PaxosDurableState>> lock_paxos_state_;
  std::vector<std::unique_ptr<PetalClient>> pb_petal_clients_;  // lock-state persistence
  std::vector<std::unique_ptr<LockServer>> lock_servers_;
  std::vector<DistributedPolicy*> dist_policies_;  // owned by lock_servers_
  VdiskId pb_state_vdisk_ = kInvalidVdisk;

  NodeId admin_node_ = kInvalidNode;
  std::unique_ptr<PetalClient> admin_petal_;
  VdiskId vdisk_ = kInvalidVdisk;

  std::vector<NodeId> frangipani_nodes_;
  std::vector<std::unique_ptr<FrangipaniNode>> nodes_;
  // Retired node objects from crashes (kept alive: in-flight RPC handlers
  // may still reference them; they are quiesced and harmless).
  std::vector<std::unique_ptr<FrangipaniNode>> graveyard_;
};

}  // namespace frangipani

#endif  // SRC_SERVER_CLUSTER_H_
