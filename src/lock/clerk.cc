#include "src/lock/clerk.h"

#include <algorithm>
#include <thread>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

LockClerk::LockClerk(Network* net, NodeId self, std::vector<NodeId> lock_servers, Clock* clock,
                     Callbacks callbacks)
    : net_(net),
      self_(self),
      lock_servers_(std::move(lock_servers)),
      clock_(clock),
      callbacks_(std::move(callbacks)) {
  assignment_.groups.fill(kInvalidNode);
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_sticky_hits_ = reg->GetCounter("lock.acquire.sticky");
  m_remote_acquires_ = reg->GetCounter("lock.acquire.remote");
  m_revokes_ = reg->GetCounter("lock.revoke.count");
  m_range_cache_hits_ = reg->GetCounter("lock.range_cache_hits");
  m_range_splits_ = reg->GetCounter("lock.range_splits");
  m_partial_revokes_ = reg->GetCounter("lock.partial_revokes");
  m_ack_errors_ = reg->GetCounter("lock.ack_errors");
  m_acquire_us_ = reg->GetHistogram("lock.acquire_us");
  m_grant_wait_us_ = reg->GetHistogram("lock.grant_wait_us");
  m_release_us_ = reg->GetHistogram("lock.release_us");
  m_revoke_us_ = reg->GetHistogram("lock.revoke_us");
  m_lease_left_at_renew_us_ = reg->GetHistogram("lock.lease_left_at_renew_us");
  net_->RegisterService(self_, kServiceName, this);
}

LockClerk::~LockClerk() {
  {
    // Async grant-ack tasks capture `this`; wait for them before members die.
    std::unique_lock<std::mutex> lk(mu_);
    async_cv_.wait(lk, [this] { return async_acks_ == 0; });
  }
  net_->UnregisterService(self_, kServiceName);
}

Status LockClerk::Open(const std::string& table) {
  Bytes request = LockOpenRequest{table}.Encode();
  Status last = Unavailable("no lock server reachable");
  // A failed call refreshes the assignment (under primary/backup, that makes
  // the standby take over), so each try asks anew for a server not yet tried.
  std::vector<NodeId> tried;
  for (;;) {
    std::vector<NodeId> servers = ActiveServers();
    auto untried = std::find_if(servers.begin(), servers.end(), [&](NodeId s) {
      return std::find(tried.begin(), tried.end(), s) == tried.end();
    });
    if (untried == servers.end()) {
      return last;
    }
    NodeId server = *untried;
    tried.push_back(server);
    StatusOr<Bytes> reply = net_->Call(self_, server, "lockd", kLockOpen, request);
    if (!reply.ok()) {
      last = reply.status();
      (void)RefreshAssignment();
      continue;
    }
    StatusOr<LockOpenReply> opened = LockOpenReply::Decode(*reply);
    if (!opened.ok()) {
      return Internal("malformed open reply");
    }
    std::lock_guard<std::mutex> guard(mu_);
    slot_ = opened->slot;
    lease_duration_ = Duration(opened->lease_us);
    lease_expiry_ = clock_->Now() + lease_duration_;
    open_ = true;
    poisoned_ = false;
    return OkStatus();
  }
}

void LockClerk::Close() {
  uint32_t slot;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!open_) {
      return;
    }
    slot = slot_;
    open_ = false;
    cache_.clear();
  }
  std::vector<NodeId> servers = ActiveServers();
  if (!servers.empty()) {
    (void)net_->Call(self_, servers.front(), "lockd", kLockClose, LockSlotRequest{slot}.Encode());
  }
}

uint32_t LockClerk::slot() const {
  std::lock_guard<std::mutex> guard(mu_);
  return slot_;
}

bool LockClerk::poisoned() const {
  std::lock_guard<std::mutex> guard(mu_);
  return poisoned_;
}

Duration LockClerk::lease_duration() const {
  std::lock_guard<std::mutex> guard(mu_);
  return lease_duration_;
}

Status LockClerk::RefreshAssignment() {
  for (NodeId server : lock_servers_) {
    StatusOr<Bytes> reply = net_->Call(self_, server, "lockd", kLockGetAssignment, Bytes{});
    if (!reply.ok()) {
      continue;
    }
    StatusOr<LockAssignment> assignment = LockAssignment::Decode(*reply);
    if (!assignment.ok()) {
      continue;
    }
    std::lock_guard<std::mutex> guard(assignment_mu_);
    assignment_ = std::move(assignment).value();
    return OkStatus();
  }
  return Unavailable("no lock server reachable for assignment refresh");
}

StatusOr<NodeId> LockClerk::ServerForLock(LockId lock) {
  auto cached = [&] {
    std::lock_guard<std::mutex> guard(assignment_mu_);
    return assignment_.groups[LockGroupOf(lock)];
  };
  NodeId server = cached();
  if (server != kInvalidNode) {
    return server;
  }
  RETURN_IF_ERROR(RefreshAssignment());
  server = cached();
  if (server == kInvalidNode) {
    return Unavailable("lock group unassigned");
  }
  return server;
}

std::vector<NodeId> LockClerk::ActiveServers() {
  {
    std::lock_guard<std::mutex> guard(assignment_mu_);
    if (!assignment_.servers.empty()) {
      return assignment_.servers;
    }
  }
  (void)RefreshAssignment();
  std::lock_guard<std::mutex> guard(assignment_mu_);
  return assignment_.servers;
}

StatusOr<Bytes> LockClerk::ServerCall(uint32_t method, LockId lock, const Bytes& request) {
  constexpr int kAttempts = 6;
  Status last = Unavailable("no attempt");
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    StatusOr<NodeId> server = ServerForLock(lock);
    if (!server.ok()) {
      last = server.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << std::min(attempt, 4)));
      continue;
    }
    StatusOr<Bytes> reply = net_->Call(self_, *server, "lockd", method, request);
    if (reply.ok()) {
      return reply;
    }
    last = reply.status();
    if (last.code() == StatusCode::kUnavailable ||
        last.code() == StatusCode::kFailedPrecondition) {
      // Server down or no longer responsible for this lock group.
      (void)RefreshAssignment();
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << std::min(attempt, 4)));
      continue;
    }
    return last;
  }
  return last;
}

void LockClerk::DeliverGrantAck(LockId lock, uint32_t slot) {
  Status st = ServerCall(kLockAck, lock, LockAckRequest{slot, lock}.Encode()).status();
  if (st.ok()) {
    return;
  }
  // The server keeps the grant unacked and so never revokes it: a peer that
  // wants the lock waits until our lease runs out. Surface it.
  m_ack_errors_->Increment();
  if (!ack_error_logged_.exchange(true)) {
    FLOG(WARN) << "clerk@" << self_ << ": grant ack for lock " << lock
               << " lost (further failures only counted in lock.ack_errors): " << st;
  }
}

bool LockClerk::UsesOverlap(const Entry& e, LockRange range) {
  for (const Use& u : e.uses) {
    if (u.range.Overlaps(range)) {
      return true;
    }
  }
  return false;
}

bool LockClerk::RevokeOverlaps(const Entry& e, LockRange range) {
  return std::any_of(e.revoking.begin(), e.revoking.end(),
                     [&](const LockRange& r) { return r.Overlaps(range); });
}

bool LockClerk::LocalConflict(const Entry& e, LockRange range, LockMode mode) {
  for (const Use& u : e.uses) {
    if (u.range.Overlaps(range) &&
        (mode == LockMode::kExclusive || u.mode == LockMode::kExclusive)) {
      return true;
    }
  }
  return false;
}

Status LockClerk::Acquire(LockId lock, LockMode mode, LockRange range) {
  FGP_CHECK(mode != LockMode::kNone);
  FGP_CHECK(!range.empty());
  obs::SpanScope span(obs::Layer::kLock, m_acquire_us_, "lock.acquire", self_, "lock", lock,
                      "mode", static_cast<uint64_t>(mode));
  std::unique_lock<std::mutex> lk(mu_);
  auto wait = [&](const char* why) {  // every blocking wait is its own span
    obs::SpanScope span(obs::Layer::kLock, why, self_, "lock", lock);
    cv_.wait(lk);
  };
  for (;;) {
    if (poisoned_ || !open_) {
      return StaleLease("lock table closed or lease lost");
    }
    Entry& e = cache_[lock];
    if (RevokeOverlaps(e, range)) {
      wait("lock.wait_revoke");
      continue;
    }
    if (RangeSetCovers(e.held, range.start, range.end, mode)) {
      // The node's hold covers us, but another local operation may be using
      // an overlapping range: an exclusive use on either side must wait, or
      // two threads of one mount would both hold the lock exclusively.
      if (LocalConflict(e, range, mode)) {
        wait("lock.wait_local_use");
        continue;
      }
      e.uses.push_back({range, mode});
      e.last_used = clock_->Now();
      m_sticky_hits_->Increment();
      if (!range.full()) {
        m_range_cache_hits_->Increment();
      }
      return OkStatus();
    }
    if (e.pending) {
      // One server request per lock at a time; the reply may cover us.
      wait("lock.wait_pending");
      continue;
    }
    if (mode == LockMode::kExclusive && LocalConflict(e, range, mode)) {
      // Upgrade wanted while another local operation uses the overlapping
      // range: wait for it to finish first.
      wait("lock.wait_local_use");
      continue;
    }
    // Need to talk to the server: a fresh acquire, a range extension, or an
    // upgrade. Upgrades are issued as a request for the stronger mode; the
    // server treats a request from an existing holder as an upgrade.
    e.pending = true;
    uint32_t slot = slot_;
    lk.unlock();

    m_remote_acquires_->Increment();
    StatusOr<Bytes> reply = Unavailable("not sent");
    {
      obs::SpanScope grant_span(obs::Layer::kLock, m_grant_wait_us_, "lock.grant_wait", self_,
                                "lock", lock, "mode", static_cast<uint64_t>(mode));
      reply = ServerCall(kLockRequest, lock, LockModeRequest{slot, lock, mode, range}.Encode());
    }

    lk.lock();
    Entry& e2 = cache_[lock];
    e2.pending = false;
    if (!reply.ok()) {
      cv_.notify_all();
      if (reply.status().code() == StatusCode::kStaleLease) {
        lk.unlock();
        MarkLeaseLost();
        lk.lock();
      }
      return reply.status();
    }
    // The reply carries the granted extent, which contains the request and
    // may be wider (grant expansion).
    LockRange granted = range;
    StatusOr<LockGrantReply> grant = LockGrantReply::Decode(*reply);
    if (grant.ok() && grant->range.Contains(range)) {
      granted = grant->range;
    }
    RangeSetAdd(e2.held, granted.start, granted.end, mode);
    e2.uses.push_back({range, mode});
    e2.last_used = clock_->Now();
    cv_.notify_all();
    lk.unlock();
    // Acknowledge the grant: until this lands, the server will not revoke
    // this hold, so a revoke can never cross the grant we just applied —
    // which also means the ack only has to land eventually, so it is sent
    // from the IO pool instead of costing this thread another round trip.
    // Like every lock message, it also renews our lease at the server.
    {
      std::lock_guard<std::mutex> guard(mu_);
      ++async_acks_;
    }
    net_->SubmitIo(self_, [this, lock, slot] {
      DeliverGrantAck(lock, slot);
      std::lock_guard<std::mutex> guard(mu_);
      --async_acks_;
      async_cv_.notify_all();
    });
    return OkStatus();
  }
}

void LockClerk::Release(LockId lock, LockRange range) {
  obs::SpanScope span(obs::Layer::kLock, m_release_us_, "lock.release", self_, "lock", lock);
  std::lock_guard<std::mutex> guard(mu_);
  auto it = cache_.find(lock);
  if (it == cache_.end()) {
    return;
  }
  auto uit = std::find_if(it->second.uses.begin(), it->second.uses.end(),
                          [&](const Use& u) { return u.range == range; });
  FGP_CHECK(uit != it->second.uses.end()) << "Release without Acquire for lock " << lock;
  it->second.uses.erase(uit);
  it->second.last_used = clock_->Now();
  cv_.notify_all();
}

void LockClerk::DropIdle(Duration max_idle) {
  std::vector<LockId> candidates;
  uint32_t slot;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!open_ || poisoned_) {
      return;
    }
    slot = slot_;
    TimePoint now = clock_->Now();
    for (auto& [lock, e] : cache_) {
      if (!e.held.empty() && e.uses.empty() && e.revoking.empty() && !e.pending &&
          now - e.last_used >= max_idle) {
        candidates.push_back(lock);
      }
    }
  }
  // Flush each lock's dirty data (a write lock may cover dirty blocks) on
  // this thread. The lock stays marked revoking until its release has been
  // sent, so a local Acquire cannot re-request it and have the late release
  // take the new grant away at the server.
  std::vector<LockId> to_drop;
  for (LockId lock : candidates) {
    {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = cache_.find(lock);
      if (it == cache_.end() || !it->second.uses.empty() || !it->second.revoking.empty() ||
          it->second.pending) {
        continue;
      }
      it->second.revoking.push_back(LockRange{});
    }
    if (callbacks_.on_revoke) {
      callbacks_.on_revoke(lock, LockMode::kNone, LockRange{});
    }
    to_drop.push_back(lock);
  }
  // One release message per lock, several in flight at once. A lost release
  // is benign: the server revokes the lock later and HandleRevoke answers
  // that nothing is held.
  constexpr uint32_t kReleaseWindow = 16;
  (void)net_->ParallelFor(self_, to_drop.size(), kReleaseWindow, [&](size_t i) {
    (void)ServerCall(kLockRelease, to_drop[i],
                     LockModeRequest{slot, to_drop[i], LockMode::kNone, FullRange()}.Encode());
    return OkStatus();
  });
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (LockId lock : to_drop) {
      cache_.erase(lock);
    }
  }
  cv_.notify_all();
}

void LockClerk::RenewTick() {
  uint32_t slot;
  TimePoint sent;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!open_ || poisoned_) {
      return;
    }
    slot = slot_;
    sent = clock_->Now();
    m_lease_left_at_renew_us_->Record(
        std::chrono::duration<double, std::micro>(lease_expiry_ - sent).count());
  }
  Bytes renew = LockSlotRequest{slot}.Encode();
  bool any_ok = false;
  bool denied = false;
  auto renew_at = [&](const std::vector<NodeId>& servers) {
    // Issue all renewals concurrently: one slow or dead lock server must not
    // delay renewal at the others past lease expiry.
    std::vector<std::future<StatusOr<Bytes>>> pending;
    for (NodeId server : servers) {
      pending.push_back(net_->CallAsync(self_, server, "lockd", kLockRenew, renew));
    }
    for (auto& fut : pending) {
      StatusOr<Bytes> reply = fut.get();
      if (!reply.ok()) {
        continue;
      }
      StatusOr<LockRenewReply> renewed = LockRenewReply::Decode(*reply);
      if (!renewed.ok()) {
        continue;
      }
      if (renewed->ok) {
        any_ok = true;
      } else {
        denied = true;
      }
    }
  };
  renew_at(ActiveServers());
  if (!any_ok && !denied && RefreshAssignment().ok()) {
    // No server answered: the assignment may name a dead server (a
    // primary/backup standby asked for it takes over first).
    renew_at(ActiveServers());
  }
  std::unique_lock<std::mutex> lk(mu_);
  if (any_ok && !denied) {
    lease_expiry_ = std::max(lease_expiry_, sent + lease_duration_);
    return;
  }
  if (denied || clock_->Now() > lease_expiry_) {
    lk.unlock();
    MarkLeaseLost();
  }
}

void LockClerk::MarkLeaseLost() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (poisoned_ || !open_) {
      return;
    }
    poisoned_ = true;
    cache_.clear();
  }
  cv_.notify_all();
  FLOG(WARN) << "clerk@" << self_ << ": lease lost; discarding locks and poisoning mount";
  if (callbacks_.on_lease_lost) {
    callbacks_.on_lease_lost();
  }
}

bool LockClerk::LeaseValidFor(Duration margin) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (!open_ || poisoned_) {
    return false;
  }
  return clock_->Now() + margin <= lease_expiry_;
}

int64_t LockClerk::LeaseExpiryUs() const {
  std::lock_guard<std::mutex> guard(mu_);
  if (!open_ || poisoned_) {
    return 0;
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(lease_expiry_.time_since_epoch())
      .count();
}

LockMode LockClerk::CachedMode(LockId lock) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = cache_.find(lock);
  return it == cache_.end() ? LockMode::kNone : RangeSetMaxMode(it->second.held);
}

LockMode LockClerk::CachedModeAt(LockId lock, uint64_t off) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = cache_.find(lock);
  return it == cache_.end() ? LockMode::kNone : RangeSetModeAt(it->second.held, off);
}

bool LockClerk::CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = cache_.find(lock);
  // An extent being revoked is still in `held` until the downgrade, but its
  // cached blocks may already be invalidated: report it as not covered.
  return it != cache_.end() && !RevokeOverlaps(it->second, LockRange{start, end}) &&
         RangeSetCovers(it->second.held, start, end, mode);
}

size_t LockClerk::cached_lock_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [lock, e] : cache_) {
    if (!e.held.empty()) {
      ++n;
    }
  }
  return n;
}

StatusOr<Bytes> LockClerk::Handle(uint32_t method, const Bytes& request, NodeId from) {
  switch (method) {
    case kClerkRevoke:
      return HandleRevoke(request);
    case kClerkRecoverSlot:
      return HandleRecoverSlot(request);
    case kClerkListHeld:
      return HandleListHeld();
    default:
      return InvalidArgument("unknown clerk method");
  }
}

StatusOr<Bytes> LockClerk::HandleRevoke(const Bytes& request) {
  ASSIGN_OR_RETURN(ClerkRevokeRequest req, ClerkRevokeRequest::Decode(request));
  const LockId lock = req.lock;
  const LockMode new_mode = req.mode;
  const LockRange range = req.range;
  m_revokes_->Increment();
  // Covers wait-for-users, the flush callback, and the downgrade: the
  // clerk-side half of a lock handoff chain.
  obs::SpanScope span(obs::Layer::kLock, m_revoke_us_, "lock.revoke", self_, "lock", lock,
                      "new_mode", static_cast<uint64_t>(new_mode));
  std::unique_lock<std::mutex> lk(mu_);
  if (poisoned_ || !open_) {
    // Our dirty data is gone with the lease; the lock must not change hands
    // until our log has been recovered. Refusing forces the server down the
    // dead-holder path (§6).
    return StaleLease("holder lost its lease; recover its log first");
  }
  // Grant/revoke serialization is guaranteed by the server (it never
  // revokes an unacked grant), so the locally recorded extents are
  // authoritative here.
  auto it = cache_.find(lock);
  if (it == cache_.end()) {
    return Bytes{};  // nothing to give back (e.g. our release is in flight)
  }
  bool anything = false;
  bool holds_outside = false;
  for (const RangeHold& h : it->second.held) {
    bool overlaps = h.start < range.end && h.end > range.start;
    if (overlaps && h.mode > new_mode) {
      anything = true;
    }
    if (!overlaps || h.start < range.start || h.end > range.end) {
      holds_outside = true;
    }
  }
  if (!anything) {
    return Bytes{};  // nothing held above new_mode in the revoked extent
  }
  if (holds_outside) {
    // Only part of our cached extents is being taken back.
    m_partial_revokes_->Increment();
    obs::RecordInstant(obs::Layer::kLock, "lock.partial_revoke", self_, "lock", lock, "start",
                       range.start);
  }
  // Wait for local users overlapping the revoked extent to finish, then
  // flush + downgrade. Users of disjoint ranges are unaffected.
  it->second.revoking.push_back(range);
  obs::WaitAsSpan(cv_, lk, [&] { return !UsesOverlap(cache_[lock], range); }, obs::Layer::kLock,
                  "lock.revoke_wait_users", self_, "lock", lock);
  lk.unlock();
  if (callbacks_.on_revoke) {
    callbacks_.on_revoke(lock, new_mode, range);
  }
  lk.lock();
  Entry& e = cache_[lock];
  int splits = RangeSetDowngrade(e.held, range.start, range.end, new_mode);
  if (splits > 0) {
    m_range_splits_->Increment(splits);
  }
  auto rit = std::find_if(e.revoking.begin(), e.revoking.end(),
                          [&](const LockRange& r) { return r == range; });
  if (rit != e.revoking.end()) {
    e.revoking.erase(rit);
  }
  if (e.held.empty() && e.uses.empty() && !e.pending && e.revoking.empty()) {
    cache_.erase(lock);
  }
  lk.unlock();
  cv_.notify_all();
  return Bytes{};
}

StatusOr<Bytes> LockClerk::HandleRecoverSlot(const Bytes& request) {
  ASSIGN_OR_RETURN(LockSlotRequest req, LockSlotRequest::Decode(request));
  const uint32_t dead_slot = req.slot;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!open_ || poisoned_) {
      return Unavailable("clerk not serviceable");
    }
    if (dead_slot == slot_) {
      return InvalidArgument("cannot recover own live slot");
    }
  }
  FLOG(INFO) << "clerk@" << self_ << ": running recovery for dead slot " << dead_slot;
  if (callbacks_.on_recover) {
    RETURN_IF_ERROR(callbacks_.on_recover(dead_slot));
  }
  return Bytes{};
}

StatusOr<Bytes> LockClerk::HandleListHeld() {
  std::lock_guard<std::mutex> guard(mu_);
  ClerkHeldReply reply;
  reply.slot = slot_;
  if (!poisoned_ && open_) {
    for (const auto& [lock, e] : cache_) {
      for (const RangeHold& h : e.held) {
        reply.holds.push_back({lock, slot_, h.mode, {h.start, h.end}});
      }
    }
  }
  return reply.Encode();
}

}  // namespace frangipani
