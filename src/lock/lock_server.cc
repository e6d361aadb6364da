#include "src/lock/lock_server.h"

#include <thread>

#include "src/base/logging.h"
#include "src/lock/clerk.h"
#include "src/obs/recorder.h"

namespace frangipani {

LockServer::LockServer(Network* net, NodeId self, Clock* clock, Duration lease_duration,
                       std::unique_ptr<LockServerPolicy> policy)
    : net_(net), self_(self), slots_(clock, lease_duration), policy_(std::move(policy)) {
  policy_->Start(this);
  net_->RegisterService(self_, kServiceName, this);
}

LockServer::~LockServer() { net_->UnregisterService(self_, kServiceName); }

StatusOr<Bytes> LockServer::Handle(uint32_t method, const Bytes& request, NodeId from) {
  RETURN_IF_ERROR(policy_->Admit(method));
  switch (method) {
    case kLockOpen:
      return DoOpen(request, from);
    case kLockClose:
      return DoClose(request);
    case kLockRenew:
      return DoRenew(request);
    case kLockRequest:
      return DoRequest(request);
    case kLockRelease:
      return DoRelease(request);
    case kLockAck:
      return DoAck(request);
    case kLockGetAssignment:
      return policy_->Assignment().Encode();
    default:
      return InvalidArgument("unknown lockd method");
  }
}

StatusOr<Bytes> LockServer::DoOpen(const Bytes& request, NodeId from) {
  ASSIGN_OR_RETURN(LockOpenRequest req, LockOpenRequest::Decode(request));
  LockCommand cmd;
  cmd.kind = LockCmdKind::kOpenClerk;
  cmd.table = req.table;
  cmd.clerk = from;
  ASSIGN_OR_RETURN(uint32_t slot, policy_->Apply(std::move(cmd)));
  policy_->WriteThrough();
  FLOG(INFO) << "lockd@" << self_ << ": opened table '" << req.table << "' slot " << slot
             << " for node " << from;
  LockOpenReply reply;
  reply.slot = slot;
  reply.lease_us =
      std::chrono::duration_cast<std::chrono::microseconds>(slots_.lease_duration()).count();
  return reply.Encode();
}

StatusOr<Bytes> LockServer::DoClose(const Bytes& request) {
  ASSIGN_OR_RETURN(LockSlotRequest req, LockSlotRequest::Decode(request));
  LockCommand cmd;
  cmd.kind = LockCmdKind::kCloseClerk;
  cmd.slot = req.slot;
  RETURN_IF_ERROR(policy_->Apply(std::move(cmd)).status());
  policy_->WriteThrough();
  return Bytes{};
}

StatusOr<Bytes> LockServer::DoRenew(const Bytes& request) {
  ASSIGN_OR_RETURN(LockSlotRequest req, LockSlotRequest::Decode(request));
  LockRenewReply reply;
  reply.ok = slots_.Renew(req.slot);
  return reply.Encode();
}

StatusOr<Bytes> LockServer::DoRequest(const Bytes& request) {
  ASSIGN_OR_RETURN(LockModeRequest req, LockModeRequest::Decode(request));
  if (!policy_->Serves(req.lock)) {
    return FailedPrecondition("lock group not served here");
  }
  if (!slots_.IsOpen(req.slot) || slots_.Expired(req.slot)) {
    return StaleLease("lease not live");
  }
  ImplicitRenew(req.slot);
  policy_->WarmGroups();
  // Covers conflict resolution: any revoke chain this grant triggers runs
  // inside (RevokeAt below), so a handoff shows as one nested span tree.
  obs::SpanScope span(obs::Layer::kLock, "lockd.request", self_, "lock", req.lock, "mode",
                      static_cast<uint64_t>(req.mode));
  LockGrantReply reply;
  RETURN_IF_ERROR(core_.Request(
      req.slot, req.lock, req.mode, req.range,
      [this](uint32_t holder, LockId l, LockMode m, LockRange r) {
        return RevokeAt(holder, l, m, r);
      },
      [this](uint32_t holder) { HandleDeadHolder(holder); }, &reply.range));
  policy_->WriteThrough();
  obs::RecordInstant(obs::Layer::kLock, "lockd.grant", self_, "lock", req.lock, "slot", req.slot);
  return reply.Encode();
}

StatusOr<Bytes> LockServer::DoRelease(const Bytes& request) {
  ASSIGN_OR_RETURN(LockModeRequest req, LockModeRequest::Decode(request));
  if (!policy_->Serves(req.lock)) {
    return FailedPrecondition("lock group not served here");
  }
  ImplicitRenew(req.slot);
  core_.Release(req.slot, req.lock, req.mode, req.range);
  policy_->WriteThrough();
  return Bytes{};
}

StatusOr<Bytes> LockServer::DoAck(const Bytes& request) {
  ASSIGN_OR_RETURN(LockAckRequest req, LockAckRequest::Decode(request));
  ImplicitRenew(req.slot);
  core_.Ack(req.slot, req.lock);
  return Bytes{};
}

void LockServer::ImplicitRenew(uint32_t slot) {
  static obs::Counter* implicit_renewals =
      obs::MetricsRegistry::Default()->GetCounter("lockd.implicit_renewals");
  if (slots_.Renew(slot)) {
    implicit_renewals->Increment();
  }
}

StatusOr<uint32_t> LockServer::ApplySlotChange(const LockCommand& cmd) {
  switch (cmd.kind) {
    case LockCmdKind::kOpenClerk:
      return slots_.Open(cmd.table, cmd.clerk);
    case LockCmdKind::kCloseClerk:
    case LockCmdKind::kSlotRecovered:
      core_.ReleaseAll(cmd.slot);
      slots_.Free(cmd.slot);
      return cmd.slot;
    case LockCmdKind::kClaimRecovery:
      slots_.Claim(cmd.slot, cmd.server);
      return cmd.slot;
    default:
      return InvalidArgument("not a slot change");
  }
}

Status LockServer::RevokeAt(uint32_t holder, LockId lock, LockMode new_mode, LockRange range) {
  NodeId clerk = slots_.ClerkOf(holder);
  if (clerk == kInvalidNode) {
    return OkStatus();  // slot already gone; core re-checks
  }
  if (slots_.Expired(holder)) {
    // Dead by definition: do not ask the zombie; run recovery instead.
    return Unavailable("holder lease expired");
  }
  obs::SpanScope span(obs::Layer::kLock, "lockd.revoke_rpc", self_, "lock", lock, "holder",
                      holder);
  ClerkRevokeRequest req;
  req.lock = lock;
  req.mode = new_mode;
  req.range = range;
  return net_->Call(self_, clerk, LockClerk::kServiceName, kClerkRevoke, req.Encode()).status();
}

void LockServer::HandleDeadHolder(uint32_t holder) {
  {
    std::unique_lock<std::mutex> lk(recovery_mu_);
    if (recovering_.count(holder) > 0) {
      // Another thread is already driving recovery for this slot.
      recovery_cv_.wait(lk, [&] { return recovering_.count(holder) == 0; });
      return;
    }
    if (!slots_.IsOpen(holder)) {
      return;  // already recovered and freed
    }
    if (!slots_.Expired(holder)) {
      // Transient unreachability; the lease is still valid. Let the
      // requester retry the revoke after a short delay.
      lk.unlock();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return;
    }
    recovering_.insert(holder);
  }
  auto done = [&] {
    {
      std::lock_guard<std::mutex> lk(recovery_mu_);
      recovering_.erase(holder);
    }
    recovery_cv_.notify_all();
  };

  // Claim the recovery so only one demon replays this log (§6: the recovery
  // demon holds an exclusive lock on the log; here the claim is slot state).
  LockCommand claim;
  claim.kind = LockCmdKind::kClaimRecovery;
  claim.slot = holder;
  claim.server = self_;
  (void)policy_->Apply(std::move(claim));
  NodeId claimed_by = slots_.ClaimOf(holder);
  if (!slots_.IsOpen(holder) || (claimed_by != self_ && claimed_by != kInvalidNode)) {
    // Another server drives it (or it is done): wait until the slot is freed.
    (void)slots_.WaitFreed(holder, std::chrono::seconds(30));
    done();
    return;
  }

  FLOG(WARN) << "lockd@" << self_ << ": slot " << holder
             << " lease expired; initiating log recovery";
  // Ask a live clerk to replay the dead server's log (§6), then release the
  // dead server's locks and free the slot for reuse.
  bool recovered = false;
  for (int round = 0; round < 8 && !recovered; ++round) {
    for (const auto& [slot, clerk] : slots_.LiveClerks()) {
      if (slot == holder) {
        continue;
      }
      LockSlotRequest req;
      req.slot = holder;
      StatusOr<Bytes> reply =
          net_->Call(self_, clerk, LockClerk::kServiceName, kClerkRecoverSlot, req.Encode());
      if (reply.ok()) {
        recovered = true;
        break;
      }
      FLOG(DEBUG) << "lockd@" << self_ << ": recovery attempt via clerk slot " << slot
                  << " node " << clerk << " failed: " << reply.status();
    }
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (recovered) {
    LockCommand freed;
    freed.kind = LockCmdKind::kSlotRecovered;
    freed.slot = holder;
    (void)policy_->Apply(std::move(freed));
    policy_->WriteThrough();
    FLOG(INFO) << "lockd@" << self_ << ": slot " << holder << " recovered and freed";
  }
  done();
}

void LockServer::CheckLeases() {
  for (uint32_t slot : slots_.ExpiredSlots()) {
    HandleDeadHolder(slot);
  }
}

void LockServer::InstallHeldLocks(const std::vector<std::pair<uint32_t, NodeId>>& clerks,
                                  const std::function<bool(LockId)>& wanted) {
  for (const auto& [slot, clerk] : clerks) {
    StatusOr<Bytes> reply =
        net_->Call(self_, clerk, LockClerk::kServiceName, kClerkListHeld, Bytes{});
    if (!reply.ok()) {
      continue;  // unreachable clerk: its lease will expire and be recovered
    }
    StatusOr<ClerkHeldReply> held = ClerkHeldReply::Decode(*reply);
    if (!held.ok()) {
      continue;
    }
    for (const LockHold& h : held->holds) {
      if (wanted(h.lock)) {
        core_.Install(h.slot, h.lock, h.mode, h.range);
      }
    }
  }
}

void LockServer::RecoverStateFromClerks(const std::vector<std::pair<uint32_t, NodeId>>& clerks) {
  core_.Clear();
  for (const auto& [slot, clerk] : clerks) {
    slots_.InstallOpen(slot, "", clerk);
  }
  InstallHeldLocks(clerks, [this](LockId lock) { return policy_->Serves(lock); });
  policy_->WriteThrough();
}

}  // namespace frangipani
