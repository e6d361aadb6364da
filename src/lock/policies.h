// The three lock service variants of §6, as policies of the one LockServer
// core (src/lock/lock_server.h). Each holds only what differs.
//
//  - CentralizedPolicy (#1): "a single, centralized server that kept all its
//    lock state in volatile memory". Slot changes apply locally; one server
//    serves every lock. After a restart the state is rebuilt from the
//    clerks (LockServer::RecoverStateFromClerks), because "the Frangipani
//    servers and their logs hold enough state information to permit
//    recovery even if the lock service loses all its state in a crash."
//  - PrimaryBackupPolicy (#2): the same, but "writing each lock state change
//    through to Petal before returning to the client. If the primary lock
//    server crashed, a backup server would read the current state from
//    Petal and take over." Takeover happens when the standby receives
//    traffic while the primary is unreachable.
//  - DistributedPolicy (#3), the paper's final one: locks are partitioned
//    into ~100 groups assigned to servers; the server list, the group
//    assignment and the slot table are replicated with Paxos. Servers
//    joining or leaving rebalance the groups (every group exactly one
//    server, load balanced, movement minimized); a server that gains groups
//    rebuilds their lock state from the clerks before serving them
//    (two-phase reassignment). The replicated recovery claim guarantees one
//    recovery demon per dead log.
#ifndef SRC_LOCK_POLICIES_H_
#define SRC_LOCK_POLICIES_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/lock/lock_server.h"
#include "src/paxos/paxos.h"
#include "src/petal/petal_client.h"

namespace frangipani {

class CentralizedPolicy : public LockServerPolicy {
 public:
  StatusOr<uint32_t> Apply(LockCommand cmd) override { return server_->ApplySlotChange(cmd); }
  // One server for every group, so the distributed router works unchanged.
  LockAssignment Assignment() const override;
};

class PrimaryBackupPolicy : public CentralizedPolicy {
 public:
  PrimaryBackupPolicy(NodeId peer, bool start_active, PetalClient* petal, VdiskId state_vdisk)
      : peer_(peer), petal_(petal), state_vdisk_(state_vdisk), active_(start_active) {}

  Status Admit(uint32_t method) override;
  // Writes the whole lock and lease state through to Petal.
  void WriteThrough() override;

  bool active() const { return active_.load(); }

 private:
  // Loads the state from Petal and starts serving.
  Status TakeOver();

  NodeId peer_;
  PetalClient* petal_;
  VdiskId state_vdisk_;
  std::atomic<bool> active_;
  std::mutex takeover_mu_;  // one takeover at a time
  std::mutex persist_mu_;   // orders snapshots with their Petal writes
};

// Deterministically rebalances `a.groups` over `a.servers`: every group gets
// exactly one active server, per-server counts differ by at most one, and
// already-valid assignments move only when balance requires it.
void RebalanceGroups(LockAssignment& a);

class DistributedPolicy : public LockServerPolicy {
 public:
  DistributedPolicy(std::vector<NodeId> paxos_group, std::vector<NodeId> initial_active,
                    PaxosDurableState* paxos_state);
  ~DistributedPolicy() override;

  void Start(LockServer* server) override;
  StatusOr<uint32_t> Apply(LockCommand cmd) override;
  bool Serves(LockId lock) const override;
  LockAssignment Assignment() const override;
  // Phase 2 of reassignment: rebuild lock state for groups this server just
  // gained by querying every clerk with the table open.
  void WarmGroups() override;

  // Membership administration (driven by the harness or by the failure
  // detector below).
  Status ProposeAddServer(NodeId server);
  Status ProposeRemoveServer(NodeId server);

  // Pings peers; proposes removal of peers that miss `threshold` consecutive
  // pings. One call = one round (drive from a PeriodicTask).
  void FailureDetectTick(int threshold = 3);

  PaxosPeer* paxos() { return paxos_.get(); }

 private:
  void OnApply(uint64_t index, const Bytes& raw);

  std::vector<NodeId> paxos_group_;
  PaxosDurableState* paxos_state_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LockAssignment assignment_;
  std::map<uint64_t, StatusOr<uint32_t>> results_;  // by nonce, own proposals
  uint64_t next_nonce_ = 1;
  std::set<uint32_t> cold_groups_;
  bool warming_ = false;
  std::map<NodeId, int> ping_failures_;

  std::unique_ptr<PaxosPeer> paxos_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_POLICIES_H_
