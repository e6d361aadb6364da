// The lock surface the file system needs. LockClerk (the real distributed
// clerk) satisfies it; LocalLocks is a process-local table used by the
// AdvFS-like single-machine baseline and by read-only snapshot mounts, where
// no coherence traffic is needed.
#ifndef SRC_FS_LOCK_PROVIDER_H_
#define SRC_FS_LOCK_PROVIDER_H_

#include <map>
#include <mutex>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/lock/clerk.h"
#include "src/lock/types.h"

namespace frangipani {

class LockProvider {
 public:
  virtual ~LockProvider() = default;
  // Acquire/Release operate on byte extents of the lock name. Metadata
  // locks pass the default full range, which degenerates to whole-lock
  // behavior. Release takes the same range passed to Acquire.
  virtual Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{}) = 0;
  virtual void Release(LockId lock, LockRange range = LockRange{}) = 0;
  // True when [start, end) of `lock` is locally cached at `mode` or
  // stronger and not being revoked. Used to bound read-ahead to held
  // extents; a provider without revocation (LocalLocks) may simply return
  // true.
  virtual bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const = 0;
  virtual bool LeaseValidFor(Duration margin) const = 0;
  virtual int64_t LeaseExpiryUs() const = 0;
  // 0 = no lease (local locks): the margin check is disabled.
  virtual Duration LeaseDuration() const = 0;
  virtual uint32_t slot() const = 0;
  virtual bool poisoned() const = 0;
};

class ClerkLockProvider : public LockProvider {
 public:
  explicit ClerkLockProvider(LockClerk* clerk) : clerk_(clerk) {}

  Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{}) override {
    return clerk_->Acquire(lock, mode, range);
  }
  void Release(LockId lock, LockRange range = LockRange{}) override {
    clerk_->Release(lock, range);
  }
  bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const override {
    return clerk_->CachedCovers(lock, start, end, mode);
  }
  bool LeaseValidFor(Duration margin) const override { return clerk_->LeaseValidFor(margin); }
  int64_t LeaseExpiryUs() const override { return clerk_->LeaseExpiryUs(); }
  Duration LeaseDuration() const override { return clerk_->lease_duration(); }
  uint32_t slot() const override { return clerk_->slot(); }
  bool poisoned() const override { return clerk_->poisoned(); }

 private:
  LockClerk* clerk_;
};

// In-process MRSW locks for single-machine use. No lease, never poisoned.
// Ranges are ignored: the whole lock is taken, which is conservative but
// correct for a single process (no coherence traffic to lose).
class LocalLocks : public LockProvider {
 public:
  Status Acquire(LockId lock, LockMode mode, LockRange range = LockRange{}) override;
  void Release(LockId lock, LockRange range = LockRange{}) override;
  bool CachedCovers(LockId lock, uint64_t start, uint64_t end, LockMode mode) const override {
    return true;
  }
  bool LeaseValidFor(Duration margin) const override { return true; }
  int64_t LeaseExpiryUs() const override { return 0; }
  Duration LeaseDuration() const override { return Duration(0); }
  uint32_t slot() const override { return 0; }
  bool poisoned() const override { return false; }

 private:
  struct Entry {
    int readers = 0;
    bool writer = false;
  };
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<LockId, Entry> locks_;
};

}  // namespace frangipani

#endif  // SRC_FS_LOCK_PROVIDER_H_
