// The clerk module linked into each Frangipani server (§6). Caches granted
// locks ("sticky" locks), renews the lease, answers revoke callbacks from
// lock servers (flushing dirty data through a file-system callback first),
// runs log recovery on behalf of crashed peers when asked, and reports held
// locks for lock-server state reconstruction.
//
// Locks are extents (LockId, [start, end)): the clerk caches a per-lock
// interval set of held ranges, serves acquires covered by cached ranges
// locally, and splits/merges ranges on partial revoke. Metadata locks use
// the full range throughout and behave exactly as whole locks.
#ifndef SRC_LOCK_CLERK_H_
#define SRC_LOCK_CLERK_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/lock/range_set.h"
#include "src/lock/router.h"
#include "src/lock/types.h"
#include "src/net/network.h"
#include "src/obs/trace.h"

namespace frangipani {

class LockClerk : public Service {
 public:
  struct Callbacks {
    // Called when the lock service revokes/downgrades `range` of `lock`.
    // The callee must write dirty data covered by the lock range to Petal,
    // and invalidate its cache entries in the range if new_mode == kNone
    // (§5). Metadata locks always pass the full range.
    std::function<void(LockId lock, LockMode new_mode, LockRange range)> on_revoke;
    // Called when this clerk is chosen to recover a crashed peer's log
    // (replay log slot `dead_slot` against Petal).
    std::function<Status(uint32_t dead_slot)> on_recover;
    // Called once when the lease is lost (network partition / missed
    // renewals). The file system must discard its cache and poison the
    // mount (§6).
    std::function<void()> on_lease_lost;
  };

  static constexpr const char* kServiceName = "lockclerk";

  LockClerk(Network* net, NodeId self, std::unique_ptr<LockRouter> router, Clock* clock,
            Callbacks callbacks);
  ~LockClerk() override;

  // Opens the lock table; obtains a lease. The returned slot is also this
  // server's log slot.
  Status Open(const std::string& table);
  void Close();

  uint32_t slot() const;
  bool poisoned() const;
  Duration lease_duration() const;

  // Blocks until `range` of the lock is held in `mode` (served from the
  // cached interval set when covered). Each Acquire must be paired with a
  // Release of the same range; the granted extent stays cached after
  // Release until revoked or idle-dropped.
  Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{});
  void Release(LockId lock, LockRange range = LockRange{});

  // Returns cached locks unused for at least `max_idle` to the service
  // (paper: clerks discard locks unused for 1 hour).
  void DropIdle(Duration max_idle);

  // Lease management. RenewTick is called periodically (or by tests); it
  // records the lease left when it sends in lock.lease_left_at_renew_us.
  void RenewTick();
  bool LeaseValidFor(Duration margin) const;
  // Lease expiry in microseconds on the shared steady clock, for fencing
  // Petal writes (§6). 0 when the lease is invalid.
  int64_t LeaseExpiryUs() const;

  // Strongest mode cached anywhere on `lock` (whole-lock summary).
  LockMode CachedMode(LockId lock) const;
  // Mode cached at byte `off` of `lock`.
  LockMode CachedModeAt(LockId lock, uint64_t off) const;
  // True when the cached interval set covers [start, end) at `mode` or
  // stronger and no revoke overlapping it is under way (used to bound
  // read-ahead to held extents).
  bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const;
  size_t cached_lock_count() const;

  // Service (calls from lock servers):
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override;

 private:
  struct Use {
    LockRange range;
    LockMode mode;
  };
  struct Entry {
    RangeSet held;                   // granted extents, disjoint and merged
    std::vector<Use> uses;           // active Acquires (ranges, possibly dup)
    bool pending = false;            // a request to the server is in flight
    std::vector<LockRange> revoking; // server revokes being processed
    TimePoint last_used{};
  };

  static bool UsesOverlap(const Entry& e, LockRange range);
  // True when a revoke being processed overlaps `range`.
  static bool RevokeOverlaps(const Entry& e, LockRange range);
  // True when a local use overlaps `range` and it or the wanted `mode` is
  // exclusive.
  static bool LocalConflict(const Entry& e, LockRange range, LockMode mode);

  // Sends a lock-server call with routing/failover; returns the reply.
  StatusOr<Bytes> ServerCall(uint32_t method, LockId lock, const Bytes& request);

  // Acknowledges the grant of `lock` with one kLockAck through ServerCall.
  // Runs on the IO pool; a final failure is counted in lock.ack_errors.
  void DeliverGrantAck(LockId lock, uint32_t slot);

  StatusOr<Bytes> HandleRevoke(const Bytes& request);
  StatusOr<Bytes> HandleRecoverSlot(const Bytes& request);
  StatusOr<Bytes> HandleListHeld();

  void MarkLeaseLost();

  Network* net_;
  NodeId self_;
  std::unique_ptr<LockRouter> router_;
  Clock* clock_;
  Callbacks callbacks_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<LockId, Entry> cache_;
  uint32_t slot_ = kInvalidSlot;
  Duration lease_duration_{};
  TimePoint lease_expiry_{};
  bool open_ = false;
  bool poisoned_ = false;
  // In-flight async grant-ack tasks; the destructor drains them before the
  // clerk's members go away.
  int async_acks_ = 0;
  std::condition_variable async_cv_;
  std::atomic<bool> ack_error_logged_{false};

  // Registry handles, resolved once at construction (hot path is lock-free).
  obs::Counter* m_sticky_hits_;
  obs::Counter* m_remote_acquires_;
  obs::Counter* m_revokes_;
  obs::Counter* m_range_cache_hits_;
  obs::Counter* m_range_splits_;
  obs::Counter* m_partial_revokes_;
  obs::Counter* m_ack_errors_;
  Histogram* m_acquire_us_;
  Histogram* m_grant_wait_us_;
  Histogram* m_release_us_;
  Histogram* m_revoke_us_;
  Histogram* m_lease_left_at_renew_us_;  // lease left when a renewal is sent
};

}  // namespace frangipani

#endif  // SRC_LOCK_CLERK_H_
