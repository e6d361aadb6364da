#include "src/server/cluster.h"

#include <fstream>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      net_(options.enable_timing ? options.link : LinkParams{}),
      clock_(SystemClock::Get()) {
  if (!options_.enable_timing) {
    options_.disk.timing_enabled = false;
  }
  if (options_.nvram) {
    options_.disk.nvram = true;
  }
  switch (options_.lock_kind) {
    case LockServiceKind::kCentralized:
      options_.lock_servers = 1;
      break;
    case LockServiceKind::kPrimaryBackup:
      options_.lock_servers = 2;
      break;
    default:
      break;
  }
}

Cluster::~Cluster() {
  // Unmount surviving Frangipani servers first so flushes still find the
  // Petal and lock services up.
  for (auto& node : nodes_) {
    if (node) {
      (void)node->Unmount();
    }
  }
  nodes_.clear();
  graveyard_.clear();
}

Status Cluster::Start() {
  if (options_.flight_recorder) {
    obs::Recorder* rec = obs::Recorder::Default();
    rec->set_slow_op_us(options_.slow_op_us);
    rec->Enable(true);
  }
  // ---- Petal ----
  for (int i = 0; i < options_.petal_servers; ++i) {
    petal_nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
  }
  for (int i = 0; i < options_.petal_servers; ++i) {
    petal_state_.push_back(std::make_unique<PetalServerDurable>());
    PetalServerOptions popts;
    popts.num_disks = options_.disks_per_petal;
    popts.disk = options_.disk;
    petal_runtime_.push_back(std::make_unique<PetalServer>(
        &net_, petal_nodes_[i], petal_nodes_, petal_nodes_, petal_state_[i].get(), popts,
        clock_));
  }

  admin_node_ = net_.AddNode("admin");
  admin_petal_ = std::make_unique<PetalClient>(&net_, admin_node_, petal_nodes_);
  RETURN_IF_ERROR(admin_petal_->RefreshMap());

  // ---- lock service ----
  for (int i = 0; i < options_.lock_servers; ++i) {
    lock_nodes_.push_back(net_.AddNode("lockd" + std::to_string(i)));
  }
  if (options_.lock_kind == LockServiceKind::kPrimaryBackup) {
    ASSIGN_OR_RETURN(pb_state_vdisk_, admin_petal_->CreateVdisk());
  }
  for (int i = 0; i < options_.lock_servers; ++i) {
    std::unique_ptr<LockServerPolicy> policy;
    switch (options_.lock_kind) {
      case LockServiceKind::kCentralized:
        policy = std::make_unique<CentralizedPolicy>();
        break;
      case LockServiceKind::kPrimaryBackup:
        pb_petal_clients_.push_back(
            std::make_unique<PetalClient>(&net_, lock_nodes_[i], petal_nodes_));
        RETURN_IF_ERROR(pb_petal_clients_.back()->RefreshMap());
        policy = std::make_unique<PrimaryBackupPolicy>(lock_nodes_[1 - i],
                                                       /*start_active=*/i == 0,
                                                       pb_petal_clients_[i].get(),
                                                       pb_state_vdisk_);
        break;
      case LockServiceKind::kDistributed: {
        lock_paxos_state_.push_back(std::make_unique<PaxosDurableState>());
        auto dist = std::make_unique<DistributedPolicy>(lock_nodes_, lock_nodes_,
                                                        lock_paxos_state_[i].get());
        dist_policies_.push_back(dist.get());
        policy = std::move(dist);
        break;
      }
    }
    lock_servers_.push_back(std::make_unique<LockServer>(
        &net_, lock_nodes_[i], clock_, options_.lease_duration, std::move(policy)));
  }

  // ---- shared virtual disk + mkfs ----
  ASSIGN_OR_RETURN(vdisk_, admin_petal_->CreateVdisk());
  PetalDevice device(admin_petal_.get(), vdisk_);
  RETURN_IF_ERROR(FrangipaniFs::Mkfs(&device, options_.geometry));
  FLOG(INFO) << "cluster: started (" << options_.petal_servers << " petal, "
             << options_.lock_servers << " lock servers); vdisk " << vdisk_;
  return OkStatus();
}

StatusOr<FrangipaniNode*> Cluster::AddFrangipani() { return AddFrangipani(options_.node); }

StatusOr<FrangipaniNode*> Cluster::AddFrangipani(NodeOptions node_options) {
  NodeId id = net_.AddNode("frangipani" + std::to_string(nodes_.size()));
  frangipani_nodes_.push_back(id);
  auto node = std::make_unique<FrangipaniNode>(&net_, id, petal_nodes_, lock_nodes_,
                                               options_.lock_kind, vdisk_, clock_, node_options);
  RETURN_IF_ERROR(node->Mount());
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Status Cluster::CrashFrangipani(size_t idx) {
  if (idx >= nodes_.size() || !nodes_[idx]) {
    return InvalidArgument("no such node");
  }
  nodes_[idx]->Crash();
  net_.SetNodeUp(frangipani_nodes_[idx], false);
  graveyard_.push_back(std::move(nodes_[idx]));
  return OkStatus();
}

Status Cluster::RestartFrangipani(size_t idx) {
  if (idx >= frangipani_nodes_.size()) {
    return InvalidArgument("no such node");
  }
  net_.SetNodeUp(frangipani_nodes_[idx], true);
  auto node = std::make_unique<FrangipaniNode>(&net_, frangipani_nodes_[idx], petal_nodes_,
                                               lock_nodes_, options_.lock_kind, vdisk_, clock_,
                                               options_.node);
  RETURN_IF_ERROR(node->Mount());
  nodes_[idx] = std::move(node);
  return OkStatus();
}

Status Cluster::CrashPetal(size_t idx) {
  if (idx >= petal_runtime_.size()) {
    return InvalidArgument("no such petal server");
  }
  net_.SetNodeUp(petal_nodes_[idx], false);
  return OkStatus();
}

Status Cluster::RestartPetal(size_t idx) {
  if (idx >= petal_runtime_.size()) {
    return InvalidArgument("no such petal server");
  }
  petal_runtime_[idx]->SetReady(false);
  net_.SetNodeUp(petal_nodes_[idx], true);
  // Catch up on missed writes before taking client traffic again.
  return petal_runtime_[idx]->ResyncFromPeers();
}

Status Cluster::CrashLockServer(size_t idx) {
  if (idx >= lock_nodes_.size()) {
    return InvalidArgument("no such lock server");
  }
  net_.SetNodeUp(lock_nodes_[idx], false);
  return OkStatus();
}

Status Cluster::RestartLockServer(size_t idx) {
  if (idx >= lock_nodes_.size()) {
    return InvalidArgument("no such lock server");
  }
  net_.SetNodeUp(lock_nodes_[idx], true);
  if (options_.lock_kind == LockServiceKind::kDistributed) {
    // Rebuild volatile lock state: catch up on replicated commands; lock
    // state itself is recovered lazily from clerks (cold groups).
    dist_policies_[idx]->paxos()->CatchUp();
  } else if (options_.lock_kind == LockServiceKind::kCentralized) {
    std::vector<std::pair<uint32_t, NodeId>> clerks;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] && net_.IsNodeUp(frangipani_nodes_[i])) {
        clerks.emplace_back(nodes_[i]->slot(), frangipani_nodes_[i]);
      }
    }
    lock_servers_[idx]->RecoverStateFromClerks(clerks);
  }
  return OkStatus();
}

void Cluster::PartitionFrangipani(size_t idx, bool partitioned) {
  net_.SetIsolated(frangipani_nodes_[idx], partitioned);
}

void Cluster::CheckLeases() {
  for (auto& server : lock_servers_) {
    if (net_.IsNodeUp(server->node())) {
      server->CheckLeases();
    }
  }
}

std::string Cluster::DumpMetrics() const {
  return obs::MetricsRegistry::Default()->ExportText();
}

std::string Cluster::DumpMetricsJson() const {
  return obs::MetricsRegistry::Default()->ExportJson();
}

Status Cluster::DumpMetricsToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return IoError("cannot open metrics dump file: " + path);
  }
  out << DumpMetricsJson() << "\n";
  out.close();
  if (!out) {
    return IoError("short write to metrics dump file: " + path);
  }
  return OkStatus();
}

std::string Cluster::DumpTraceJson() const { return obs::Recorder::Default()->DumpJson(); }

Status Cluster::DumpTraceToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return IoError("cannot open trace dump file: " + path);
  }
  out << DumpTraceJson() << "\n";
  out.close();
  if (!out) {
    return IoError("short write to trace dump file: " + path);
  }
  return OkStatus();
}

}  // namespace frangipani
