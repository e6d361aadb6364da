// The multiple-reader/single-writer extent-lock state machine of the lock
// server (§6), the same for all three of the paper's variants. Handles
// granting, per-lock FIFO fairness, revocation of conflicting holders, and
// dead-holder cleanup.
//
// Locks are named by (LockId, [start, end)) extents. Holders of one LockId
// conflict only where their extents overlap with incompatible modes, so
// writers to disjoint byte ranges of one file coexist (Lustre-style extent
// locks). Metadata locks always use the full range, which degenerates to
// the original whole-lock behavior. When a request is granted, the server
// expands the grant to the largest extent around the request that conflicts
// with nobody, so a streaming writer acquires once, not per-block.
//
// Threading model: Request() runs on the requesting clerk's RPC thread and
// blocks until the lock is granted (our transport's equivalent of the
// paper's asynchronous grant message). Revocations are issued synchronously
// through a caller-supplied callback while the core mutex is dropped.
#ifndef SRC_LOCK_LOCK_CORE_H_
#define SRC_LOCK_LOCK_CORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/lock/range_set.h"
#include "src/lock/types.h"

namespace frangipani {

class LockCore {
 public:
  // Asks slot `holder` to reduce its hold on `lock` over `range` to
  // `new_mode` (kNone = release, kShared = downgrade). Returns OK once the
  // holder has complied (flushed dirty data covered by the range etc.).
  // Called with the core mutex dropped.
  using RevokeFn =
      std::function<Status(uint32_t holder, LockId lock, LockMode new_mode, LockRange range)>;

  // Invoked when a revoke fails (holder unreachable). The callee is expected
  // to eventually resolve the situation (wait for lease expiry, run log
  // recovery, then ReleaseAll(dead_slot)). Called with the mutex dropped;
  // may block.
  using DeadHolderFn = std::function<void(uint32_t holder)>;

  // Blocks until `slot` holds `range` of `lock` in `mode`. Re-requests are
  // idempotent. A holder of kShared requesting kExclusive is upgraded over
  // the requested range (other sharers are revoked there). On success
  // `*granted` is the full extent granted, which contains `range` and may be
  // larger (grant expansion). A fresh grant is "unacked" until the clerk
  // calls Ack: the core will not revoke an unacked hold, so a revoke can
  // never cross a grant response still in flight to the clerk (grant/revoke
  // serialization).
  Status Request(uint32_t slot, LockId lock, LockMode mode, LockRange range,
                 const RevokeFn& revoke, const DeadHolderFn& on_dead, LockRange* granted);

  // Clerk acknowledgment that the grant reached it (applied locally).
  void Ack(uint32_t slot, LockId lock);

  // Voluntary release (new_mode = kNone) or downgrade (kShared) of `range`.
  void Release(uint32_t slot, LockId lock, LockMode new_mode, LockRange range = LockRange{});

  // Drops every lock held by `slot` (after its log has been recovered).
  void ReleaseAll(uint32_t slot);

  // State injection for recovery from clerks / primary-backup takeover.
  void Install(uint32_t slot, LockId lock, LockMode mode, LockRange range = LockRange{});

  // Every held extent, for persistence.
  std::vector<LockHold> Dump() const;
  void Clear();

  // Strongest mode `slot` holds anywhere on `lock` (whole-lock summary).
  LockMode HeldMode(uint32_t slot, LockId lock) const;
  // Mode `slot` holds at byte `off` of `lock`.
  LockMode HeldModeAt(uint32_t slot, LockId lock, uint64_t off) const;
  size_t lock_count() const;

 private:
  struct LockState {
    std::map<uint32_t, RangeSet> holders;  // slot -> disjoint held extents
    std::map<uint32_t, int> unacked;       // slot -> grants not yet acked
    uint64_t next_ticket = 0;
    uint64_t serving = 0;
  };

  struct ConflictTarget {
    uint32_t holder;
    LockMode new_mode;
    LockRange range;
  };
  // Returns the extents that must be revoked before `slot` can hold `range`
  // of the lock in `mode`.
  static std::vector<ConflictTarget> Conflicts(const LockState& ls, uint32_t slot, LockMode mode,
                                               LockRange range);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<LockId, LockState> locks_;
};

}  // namespace frangipani

#endif  // SRC_LOCK_LOCK_CORE_H_
