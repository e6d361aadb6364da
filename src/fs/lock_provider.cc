#include "src/fs/lock_provider.h"

#include "src/obs/recorder.h"

namespace frangipani {

// A lock is either write-held (one holder) or read-held (many); Release
// infers which side to drop from the entry state, which is unambiguous
// because the two are mutually exclusive.
Status LocalLocks::Acquire(LockId lock, LockMode mode, LockRange range) {
  (void)range;  // whole-lock: disjoint-range writers serialize, which is safe
  obs::SpanScope span(obs::Layer::kLock, "lock.local_acquire", 0, "lock", lock);
  std::unique_lock<std::mutex> lk(mu_);
  if (mode == LockMode::kExclusive) {
    cv_.wait(lk, [&] {
      Entry& e = locks_[lock];
      return !e.writer && e.readers == 0;
    });
    locks_[lock].writer = true;
  } else {
    cv_.wait(lk, [&] { return !locks_[lock].writer; });
    locks_[lock].readers++;
  }
  return OkStatus();
}

void LocalLocks::Release(LockId lock, LockRange range) {
  (void)range;
  {
    std::lock_guard<std::mutex> guard(mu_);
    Entry& e = locks_[lock];
    if (e.writer) {
      e.writer = false;
    } else if (e.readers > 0) {
      e.readers--;
    }
  }
  cv_.notify_all();
}

}  // namespace frangipani
