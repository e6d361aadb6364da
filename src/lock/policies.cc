#include "src/lock/policies.h"

#include <algorithm>

#include "src/base/logging.h"

namespace frangipani {

// ---- centralized ----

LockAssignment CentralizedPolicy::Assignment() const {
  LockAssignment a;
  a.servers = {server_->node()};
  a.groups.fill(server_->node());
  return a;
}

// ---- primary/backup ----

Status PrimaryBackupPolicy::Admit(uint32_t method) {
  if (active_.load()) {
    return OkStatus();
  }
  // Standby: if the primary is gone, take over; otherwise redirect.
  StatusOr<Bytes> ping = server_->net()->Call(server_->node(), peer_, LockServer::kServiceName,
                                              kLockGetAssignment, Bytes{});
  if (ping.ok()) {
    return Unavailable("standby lock server; use primary");
  }
  return TakeOver();
}

Status PrimaryBackupPolicy::TakeOver() {
  std::lock_guard<std::mutex> guard(takeover_mu_);
  if (active_.load()) {
    return OkStatus();
  }
  Bytes header;
  RETURN_IF_ERROR(petal_->Read(state_vdisk_, 0, LockStateBlob::kHeaderBytes, &header));
  uint64_t size = LockStateBlob::StoredSize(header);
  if (size > 0) {  // 0: fresh installation
    Bytes raw;
    RETURN_IF_ERROR(petal_->Read(state_vdisk_, 0, size, &raw));
    StatusOr<LockStateBlob> blob = LockStateBlob::Decode(raw);
    if (!blob.ok()) {
      return DataLoss("corrupt lock state blob");
    }
    server_->slots().Restore(blob->slots);
    server_->core().Clear();
    for (const LockHold& h : blob->holds) {
      server_->core().Install(h.slot, h.lock, h.mode, h.range);
    }
  }
  active_.store(true);
  FLOG(INFO) << "pb-lockd@" << server_->node() << ": activated (took over lock service)";
  return OkStatus();
}

void PrimaryBackupPolicy::WriteThrough() {
  if (!active_.load()) {
    return;
  }
  std::lock_guard<std::mutex> guard(persist_mu_);
  LockStateBlob blob;
  blob.slots = server_->slots().Snapshot();
  blob.holds = server_->core().Dump();
  Status st = petal_->Write(state_vdisk_, 0, blob.Encode());
  if (!st.ok()) {
    FLOG(WARN) << "pb-lockd@" << server_->node() << ": state persist failed: " << st;
  }
}

// ---- distributed ----

void RebalanceGroups(LockAssignment& a) {
  size_t n = a.servers.size();
  if (n == 0) {
    a.groups.fill(kInvalidNode);
    return;
  }
  auto is_active = [&](NodeId s) {
    return std::find(a.servers.begin(), a.servers.end(), s) != a.servers.end();
  };
  // Desired per-server counts: within one of each other, deterministic order.
  size_t base = kNumLockGroups / n;
  size_t rem = kNumLockGroups % n;
  std::map<NodeId, size_t> desired;
  for (size_t i = 0; i < n; ++i) {
    desired[a.servers[i]] = base + (i < rem ? 1 : 0);
  }
  std::map<NodeId, size_t> have;
  // Pass 1: keep valid assignments up to the desired count; orphan the rest.
  std::vector<uint32_t> pool;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    NodeId s = a.groups[g];
    if (s != kInvalidNode && is_active(s) && have[s] < desired[s]) {
      ++have[s];
    } else {
      pool.push_back(g);
    }
  }
  // Pass 2: hand pooled groups to servers below their desired count.
  size_t si = 0;
  for (uint32_t g : pool) {
    while (have[a.servers[si]] >= desired[a.servers[si]]) {
      si = (si + 1) % n;
    }
    a.groups[g] = a.servers[si];
    ++have[a.servers[si]];
  }
}

DistributedPolicy::DistributedPolicy(std::vector<NodeId> paxos_group,
                                     std::vector<NodeId> initial_active,
                                     PaxosDurableState* paxos_state)
    : paxos_group_(std::move(paxos_group)), paxos_state_(paxos_state) {
  assignment_.servers = std::move(initial_active);
  assignment_.groups.fill(kInvalidNode);
  RebalanceGroups(assignment_);
}

DistributedPolicy::~DistributedPolicy() {
  if (server_ != nullptr) {
    server_->net()->UnregisterService(server_->node(), PaxosPeer::kServiceName);
  }
}

void DistributedPolicy::Start(LockServer* server) {
  LockServerPolicy::Start(server);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    if (assignment_.groups[g] == server_->node()) {
      cold_groups_.insert(g);
    }
  }
  paxos_ = std::make_unique<PaxosPeer>(
      server_->net(), server_->node(), paxos_group_, paxos_state_,
      [this](uint64_t index, const Bytes& cmd) { OnApply(index, cmd); });
  paxos_->CatchUp();
}

void DistributedPolicy::OnApply(uint64_t index, const Bytes& raw) {
  StatusOr<LockCommand> cmd = LockCommand::Decode(raw);
  if (!cmd.ok()) {
    FLOG(ERROR) << "dist-lockd: dropping malformed command at " << index;
    return;
  }
  if (cmd->kind != LockCmdKind::kAddServer && cmd->kind != LockCmdKind::kRemoveServer) {
    StatusOr<uint32_t> result = server_->ApplySlotChange(*cmd);
    std::lock_guard<std::mutex> guard(mu_);
    if (cmd->nonce >> 40 == server_->node()) {
      results_.insert_or_assign(cmd->nonce, std::move(result));
    }
    cv_.notify_all();
    return;
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto it = std::find(assignment_.servers.begin(), assignment_.servers.end(), cmd->server);
  if (cmd->kind == LockCmdKind::kAddServer && it == assignment_.servers.end()) {
    assignment_.servers.push_back(cmd->server);
  } else if (cmd->kind == LockCmdKind::kRemoveServer && it != assignment_.servers.end()) {
    assignment_.servers.erase(it);
  } else {
    return;  // no-op; assignment unchanged
  }
  std::array<NodeId, kNumLockGroups> before = assignment_.groups;
  RebalanceGroups(assignment_);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    if (assignment_.groups[g] == server_->node() && before[g] != server_->node()) {
      cold_groups_.insert(g);  // phase 2: must recover state from clerks
    }
  }
}

StatusOr<uint32_t> DistributedPolicy::Apply(LockCommand cmd) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    cmd.nonce = (static_cast<uint64_t>(server_->node()) << 40) | next_nonce_++;
  }
  RETURN_IF_ERROR(paxos_->Propose(cmd.Encode()).status());
  std::unique_lock<std::mutex> lk(mu_);
  bool applied =
      cv_.wait_for(lk, std::chrono::seconds(10), [&] { return results_.count(cmd.nonce) > 0; });
  if (!applied) {
    return DeadlineExceeded("lock command not applied");
  }
  auto it = results_.find(cmd.nonce);
  StatusOr<uint32_t> result = std::move(it->second);
  results_.erase(it);
  return result;
}

bool DistributedPolicy::Serves(LockId lock) const {
  std::lock_guard<std::mutex> guard(mu_);
  return assignment_.groups[LockGroupOf(lock)] == server_->node();
}

LockAssignment DistributedPolicy::Assignment() const {
  std::lock_guard<std::mutex> guard(mu_);
  return assignment_;
}

void DistributedPolicy::WarmGroups() {
  std::unique_lock<std::mutex> lk(mu_);
  if (cold_groups_.empty()) {
    return;
  }
  if (warming_) {
    cv_.wait(lk, [&] { return !warming_; });
    return;
  }
  warming_ = true;
  std::set<uint32_t> groups = cold_groups_;
  lk.unlock();

  server_->InstallHeldLocks(
      server_->slots().OpenClerks(),
      [&](LockId lock) { return groups.count(LockGroupOf(lock)) > 0; });

  lk.lock();
  for (uint32_t g : groups) {
    cold_groups_.erase(g);
  }
  warming_ = false;
  lk.unlock();
  cv_.notify_all();
}

Status DistributedPolicy::ProposeAddServer(NodeId server) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kAddServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

Status DistributedPolicy::ProposeRemoveServer(NodeId server) {
  LockCommand cmd;
  cmd.kind = LockCmdKind::kRemoveServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

void DistributedPolicy::FailureDetectTick(int threshold) {
  NodeId self = server_->node();
  std::vector<NodeId> peers;
  {
    std::lock_guard<std::mutex> guard(mu_);
    peers = assignment_.servers;
  }
  for (NodeId peer : peers) {
    if (peer == self) {
      continue;
    }
    StatusOr<Bytes> r = server_->net()->Call(self, peer, LockServer::kServiceName,
                                             kLockGetAssignment, Bytes{});
    std::unique_lock<std::mutex> lk(mu_);
    if (r.ok()) {
      ping_failures_[peer] = 0;
      continue;
    }
    int fails = ++ping_failures_[peer];
    lk.unlock();
    if (fails >= threshold) {
      FLOG(WARN) << "dist-lockd@" << self << ": peer " << peer << " missed " << fails
                 << " pings; proposing removal";
      (void)ProposeRemoveServer(peer);
      std::lock_guard<std::mutex> guard(mu_);
      ping_failures_[peer] = 0;
    }
  }
}

}  // namespace frangipani
