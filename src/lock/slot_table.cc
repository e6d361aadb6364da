#include "src/lock/slot_table.h"

namespace frangipani {

StatusOr<uint32_t> SlotTable::Open(const std::string& table, NodeId clerk) {
  std::lock_guard<std::mutex> guard(mu_);
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (!slots_[s].open) {
      slots_[s] = Slot{true, table, clerk, clock_->Now(), kInvalidNode};
      return s;
    }
  }
  return ResourceExhausted("no free lease slots (256 servers already mounted)");
}

void SlotTable::Free(uint32_t slot) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (slot < kNumLeaseSlots) {
      slots_[slot] = Slot{};
    }
  }
  freed_cv_.notify_all();
}

bool SlotTable::Renew(uint32_t slot) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots) {
    return false;
  }
  Slot& s = slots_[slot];
  TimePoint now = clock_->Now();
  if (!LiveLocked(s, now) || s.recovery_claim != kInvalidNode) {
    return false;  // too late: the service already considers this clerk failed
  }
  s.last_renew = now;
  return true;
}

void SlotTable::Claim(uint32_t slot, NodeId server) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot < kNumLeaseSlots && slots_[slot].open &&
      slots_[slot].recovery_claim == kInvalidNode) {
    slots_[slot].recovery_claim = server;
  }
}

NodeId SlotTable::ClaimOf(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  return slot < kNumLeaseSlots ? slots_[slot].recovery_claim : kInvalidNode;
}

bool SlotTable::IsOpen(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  return slot < kNumLeaseSlots && slots_[slot].open;
}

bool SlotTable::Expired(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  return slot >= kNumLeaseSlots || !LiveLocked(slots_[slot], clock_->Now());
}

NodeId SlotTable::ClerkOf(uint32_t slot) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot >= kNumLeaseSlots || !slots_[slot].open) {
    return kInvalidNode;
  }
  return slots_[slot].clerk;
}

bool SlotTable::WaitFreed(uint32_t slot, Duration timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  return freed_cv_.wait_for(lk, timeout,
                            [&] { return slot >= kNumLeaseSlots || !slots_[slot].open; });
}

std::vector<std::pair<uint32_t, NodeId>> SlotTable::OpenClerks() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::pair<uint32_t, NodeId>> out;
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open) {
      out.emplace_back(s, slots_[s].clerk);
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, NodeId>> SlotTable::LiveClerks() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<std::pair<uint32_t, NodeId>> out;
  TimePoint now = clock_->Now();
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (LiveLocked(slots_[s], now)) {
      out.emplace_back(s, slots_[s].clerk);
    }
  }
  return out;
}

std::vector<uint32_t> SlotTable::ExpiredSlots() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<uint32_t> out;
  TimePoint now = clock_->Now();
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open && !LiveLocked(slots_[s], now)) {
      out.push_back(s);
    }
  }
  return out;
}

void SlotTable::InstallOpen(uint32_t slot, const std::string& table, NodeId clerk) {
  std::lock_guard<std::mutex> guard(mu_);
  if (slot < kNumLeaseSlots) {
    slots_[slot] = Slot{true, table, clerk, clock_->Now(), kInvalidNode};
  }
}

std::vector<SlotRecord> SlotTable::Snapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::vector<SlotRecord> out;
  for (uint32_t s = 0; s < kNumLeaseSlots; ++s) {
    if (slots_[s].open) {
      out.push_back({s, slots_[s].table, slots_[s].clerk});
    }
  }
  return out;
}

void SlotTable::Restore(const std::vector<SlotRecord>& records) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    TimePoint now = clock_->Now();
    slots_.fill(Slot{});
    for (const SlotRecord& r : records) {
      if (r.slot < kNumLeaseSlots) {
        slots_[r.slot] = Slot{true, r.table, r.clerk, now, kInvalidNode};
      }
    }
  }
  freed_cv_.notify_all();
}

}  // namespace frangipani
