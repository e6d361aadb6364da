#include "src/lock/lock_core.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

std::vector<LockCore::ConflictTarget> LockCore::Conflicts(const LockState& ls, uint32_t slot,
                                                          LockMode mode, LockRange range) {
  std::vector<ConflictTarget> out;
  for (const auto& [holder, held] : ls.holders) {
    if (holder == slot) {
      continue;
    }
    // Collect the overlapping incompatible extents of this holder, coalescing
    // adjacent ones so a partial revoke is one RPC per contiguous stretch.
    LockRange pending{0, 0};
    LockMode pending_mode = LockMode::kNone;
    auto flush = [&] {
      if (!pending.empty()) {
        out.push_back({holder, pending_mode, pending});
        pending = {0, 0};
      }
    };
    for (const RangeHold& h : held) {
      if (h.end <= range.start || h.start >= range.end) {
        continue;
      }
      bool incompatible = mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
      if (!incompatible) {
        continue;  // shared/shared overlap is fine
      }
      // Exclusive request: the overlap must go entirely (kNone). Shared
      // request against an exclusive hold: downgrade the overlap to shared.
      LockMode target = mode == LockMode::kExclusive ? LockMode::kNone : LockMode::kShared;
      uint64_t s = std::max(h.start, range.start);
      uint64_t e = std::min(h.end, range.end);
      if (!pending.empty() && pending.end == s && pending_mode == target) {
        pending.end = e;
      } else {
        flush();
        pending = {s, e};
        pending_mode = target;
      }
    }
    flush();
  }
  return out;
}

Status LockCore::Request(uint32_t slot, LockId lock, LockMode mode, LockRange range,
                         const RevokeFn& revoke, const DeadHolderFn& on_dead,
                         LockRange* granted) {
  if (mode == LockMode::kNone) {
    return InvalidArgument("cannot request mode none");
  }
  if (range.empty()) {
    return InvalidArgument("empty lock range");
  }
  std::unique_lock<std::mutex> lk(mu_);
  uint64_t ticket = locks_[lock].next_ticket++;
  obs::WaitAsSpan(cv_, lk, [&] { return locks_[lock].serving == ticket; }, obs::Layer::kLock,
                  "lockd.queue_wait", 0, "lock", lock);

  for (;;) {
    LockState& ls = locks_[lock];
    auto self = ls.holders.find(slot);
    if (self != ls.holders.end() &&
        RangeSetCovers(self->second, range.start, range.end, mode)) {
      // Already held strongly enough over the whole range: idempotent
      // re-grant of exactly the requested extent. Not counted as unacked
      // (the clerk has this state already; an extra ack is harmless).
      *granted = range;
      break;
    }
    std::vector<ConflictTarget> conflicts = Conflicts(ls, slot, mode, range);
    if (conflicts.empty()) {
      // Grant expansion (Lustre-style): widen the grant to the largest
      // extent around the request that conflicts with no other holder, so a
      // streaming writer acquires once instead of once per block.
      uint64_t lo = 0;
      uint64_t hi = kRangeEnd;
      for (const auto& [holder, held] : ls.holders) {
        if (holder == slot) {
          continue;
        }
        for (const RangeHold& h : held) {
          bool incompatible = mode == LockMode::kExclusive || h.mode == LockMode::kExclusive;
          if (!incompatible) {
            continue;
          }
          if (h.end <= range.start) {
            lo = std::max(lo, h.end);
          } else if (h.start >= range.end) {
            hi = std::min(hi, h.start);
          }
        }
      }
      RangeSetAdd(ls.holders[slot], lo, hi, mode);
      ls.unacked[slot]++;
      *granted = {lo, hi};
      break;
    }
    // Never revoke a hold whose grant the clerk has not acknowledged yet;
    // the ack depends only on the grant response arriving, so this wait is
    // finite unless the holder died (then the timeout falls through to the
    // normal dead-holder path via the failed revoke).
    for (const ConflictTarget& c : conflicts) {
      uint32_t holder = c.holder;
      cv_.wait_for(lk, std::chrono::seconds(2), [&] {
        auto it = locks_[lock].unacked.find(holder);
        return it == locks_[lock].unacked.end() || it->second == 0;
      });
    }
    lk.unlock();
    for (const ConflictTarget& c : conflicts) {
      Status st = revoke(c.holder, lock, c.new_mode, c.range);
      if (st.ok()) {
        std::lock_guard<std::mutex> apply(mu_);
        LockState& state = locks_[lock];
        auto it = state.holders.find(c.holder);
        if (it != state.holders.end()) {
          RangeSetDowngrade(it->second, c.range.start, c.range.end, c.new_mode);
          if (it->second.empty()) {
            state.holders.erase(it);
          }
        }
      } else {
        // Holder unreachable: let the server orchestrate recovery; its locks
        // are dropped via ReleaseAll once the dead server's log is replayed.
        on_dead(c.holder);
      }
    }
    lk.lock();
  }
  locks_[lock].serving++;
  lk.unlock();
  cv_.notify_all();
  return OkStatus();
}

void LockCore::Ack(uint32_t slot, LockId lock) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = locks_.find(lock);
    if (it != locks_.end()) {
      auto uit = it->second.unacked.find(slot);
      if (uit != it->second.unacked.end() && --uit->second <= 0) {
        it->second.unacked.erase(uit);
      }
    }
  }
  cv_.notify_all();
}

void LockCore::Release(uint32_t slot, LockId lock, LockMode new_mode, LockRange range) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto lit = locks_.find(lock);
    if (lit == locks_.end()) {
      return;
    }
    auto hit = lit->second.holders.find(slot);
    if (hit == lit->second.holders.end()) {
      return;
    }
    RangeSetDowngrade(hit->second, range.start, range.end, new_mode);
    if (hit->second.empty()) {
      lit->second.holders.erase(hit);
      lit->second.unacked.erase(slot);
    }
  }
  cv_.notify_all();
}

void LockCore::ReleaseAll(uint32_t slot) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    for (auto& [lock, state] : locks_) {
      state.holders.erase(slot);
      state.unacked.erase(slot);
    }
  }
  cv_.notify_all();
}

void LockCore::Install(uint32_t slot, LockId lock, LockMode mode, LockRange range) {
  std::lock_guard<std::mutex> guard(mu_);
  if (mode != LockMode::kNone) {
    RangeSetAdd(locks_[lock].holders[slot], range.start, range.end, mode);
  }
}

std::vector<LockHold> LockCore::Dump() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<LockHold> out;
  for (const auto& [lock, state] : locks_) {
    for (const auto& [holder, held] : state.holders) {
      for (const RangeHold& h : held) {
        out.push_back({lock, holder, h.mode, {h.start, h.end}});
      }
    }
  }
  return out;
}

void LockCore::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  locks_.clear();
}

LockMode LockCore::HeldMode(uint32_t slot, LockId lock) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto lit = locks_.find(lock);
  if (lit == locks_.end()) {
    return LockMode::kNone;
  }
  auto hit = lit->second.holders.find(slot);
  return hit == lit->second.holders.end() ? LockMode::kNone : RangeSetMaxMode(hit->second);
}

LockMode LockCore::HeldModeAt(uint32_t slot, LockId lock, uint64_t off) const {
  std::lock_guard<std::mutex> guard(mu_);
  auto lit = locks_.find(lock);
  if (lit == locks_.end()) {
    return LockMode::kNone;
  }
  auto hit = lit->second.holders.find(slot);
  return hit == lit->second.holders.end() ? LockMode::kNone : RangeSetModeAt(hit->second, off);
}

size_t LockCore::lock_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  size_t n = 0;
  for (const auto& [lock, state] : locks_) {
    if (!state.holders.empty()) {
      ++n;
    }
  }
  return n;
}

}  // namespace frangipani
