// The lock server (§6). One core serves all three of the paper's lock
// service variants: it owns the lease-slot table and the lock state machine,
// dispatches the lockd methods, issues revokes, renews leases implicitly,
// sweeps expired leases, drives recovery of a dead holder's log, and
// rebuilds lock state from the clerks' held-lock lists.
//
// What differs between the variants lives in a LockServerPolicy
// (src/lock/policies.h): where slot changes are applied (locally, or through
// Paxos), which lock groups this server serves, whether each change is
// written through to Petal, and whether this server is a standby.
#ifndef SRC_LOCK_LOCK_SERVER_H_
#define SRC_LOCK_LOCK_SERVER_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/lock/lock_core.h"
#include "src/lock/slot_table.h"
#include "src/lock/types.h"
#include "src/net/network.h"

namespace frangipani {

class LockServer;

class LockServerPolicy {
 public:
  virtual ~LockServerPolicy() = default;

  // Called once by the LockServer constructor, before any traffic.
  virtual void Start(LockServer* server) { server_ = server; }

  // Runs before every lockd call: OK to serve it here. A standby returns
  // Unavailable, or takes over first when the primary is gone.
  virtual Status Admit(uint32_t method) { return OkStatus(); }

  // Applies a slot change (open, close, recovery claim, slot recovered) to
  // this server and returns once it is applied here. For kOpenClerk the
  // result is the slot assigned.
  virtual StatusOr<uint32_t> Apply(LockCommand cmd) = 0;

  // Lock groups: whether this server serves `lock`, and the map clerks
  // route by. WarmGroups installs state for groups this server just gained.
  virtual bool Serves(LockId lock) const { return true; }
  virtual LockAssignment Assignment() const = 0;
  virtual void WarmGroups() {}

  // Called after each lock-state change.
  virtual void WriteThrough() {}

 protected:
  LockServer* server_ = nullptr;
};

class LockServer : public Service {
 public:
  static constexpr const char* kServiceName = "lockd";

  LockServer(Network* net, NodeId self, Clock* clock, Duration lease_duration,
             std::unique_ptr<LockServerPolicy> policy);
  ~LockServer() override;

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override;

  // Proactive lease sweep: recovers every slot whose lease expired. (Expiry
  // is otherwise found lazily, when a revoke fails.) Runs recoveries on the
  // calling thread.
  void CheckLeases();

  // After a lock-server restart: rebuild lock state from the clerks.
  // `clerks` maps slot -> clerk node (from the operator / old config); each
  // slot is (re)opened, so one whose clerk does not answer expires and is
  // recovered like any dead holder.
  void RecoverStateFromClerks(const std::vector<std::pair<uint32_t, NodeId>>& clerks);

  // Asks each clerk for its held extents and installs those `wanted`
  // accepts. Unreachable clerks are skipped.
  void InstallHeldLocks(const std::vector<std::pair<uint32_t, NodeId>>& clerks,
                        const std::function<bool(LockId)>& wanted);

  // Applies one slot change to the slot table and the lock state. Policies
  // call this, directly or from the replicated log.
  StatusOr<uint32_t> ApplySlotChange(const LockCommand& cmd);

  Network* net() const { return net_; }
  NodeId node() const { return self_; }
  SlotTable& slots() { return slots_; }
  LockCore& core() { return core_; }

  LockAssignment Assignment() const { return policy_->Assignment(); }
  size_t lock_count() const { return core_.lock_count(); }
  LockMode HeldMode(uint32_t slot, LockId lock) const { return core_.HeldMode(slot, lock); }

 private:
  StatusOr<Bytes> DoOpen(const Bytes& request, NodeId from);
  StatusOr<Bytes> DoClose(const Bytes& request);
  StatusOr<Bytes> DoRenew(const Bytes& request);
  StatusOr<Bytes> DoRequest(const Bytes& request);
  StatusOr<Bytes> DoRelease(const Bytes& request);
  StatusOr<Bytes> DoAck(const Bytes& request);

  // Any message from a live holder proves liveness: restamp its lease, so a
  // grant ack, a release or a request renews it like a kLockRenew does.
  // Only this server's view is extended, which is always safe (the hazard
  // direction is the server expiring a lease the client still trusts).
  void ImplicitRenew(uint32_t slot);

  Status RevokeAt(uint32_t holder, LockId lock, LockMode new_mode, LockRange range);
  // Handles an unreachable or dead holder: waits out the lease, claims the
  // recovery, has a live clerk replay the dead log, then releases the dead
  // slot's locks.
  void HandleDeadHolder(uint32_t holder);

  Network* net_;
  NodeId self_;
  SlotTable slots_;
  LockCore core_;

  std::mutex recovery_mu_;
  std::condition_variable recovery_cv_;
  std::set<uint32_t> recovering_;

  // Declared last so it is destroyed first: a replicated policy applies
  // commands into slots_ and core_ until it is gone.
  std::unique_ptr<LockServerPolicy> policy_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_LOCK_SERVER_H_
