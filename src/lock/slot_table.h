// Lease-slot bookkeeping of the lock server. A slot is the lease identifier
// handed to a clerk on open; it doubles as the Frangipani server's log slot
// (§7). Slots are scarce (256) and are freed only after the dead server's
// log has been recovered. Each lock server keeps its own table: lease
// expiry is judged by this server's clock and the renewals it has seen.
#ifndef SRC_LOCK_SLOT_TABLE_H_
#define SRC_LOCK_SLOT_TABLE_H_

#include <array>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/lock/types.h"
#include "src/net/network.h"

namespace frangipani {

class SlotTable {
 public:
  SlotTable(Clock* clock, Duration lease_duration)
      : clock_(clock), lease_duration_(lease_duration) {}

  // Assigns the lowest free slot. A freshly (re)started server always gets a
  // slot whose log has been recovered (or never used).
  StatusOr<uint32_t> Open(const std::string& table, NodeId clerk);

  // Frees a slot: after a clean close or once its log has been recovered.
  void Free(uint32_t slot);

  // Returns false if the slot is not open, its lease already expired, or its
  // recovery has been claimed (a failed renewal: the clerk must treat its
  // lease as lost).
  bool Renew(uint32_t slot);

  // Records `server` as the one server that recovers `slot`'s log; a no-op
  // when the slot is closed or already claimed.
  void Claim(uint32_t slot, NodeId server);
  NodeId ClaimOf(uint32_t slot) const;

  bool IsOpen(uint32_t slot) const;
  bool Expired(uint32_t slot) const;
  NodeId ClerkOf(uint32_t slot) const;
  // Blocks until `slot` is free or `timeout` passes; true if it is free.
  bool WaitFreed(uint32_t slot, Duration timeout);

  // Open slots with their clerks; Live additionally requires an unexpired
  // lease.
  std::vector<std::pair<uint32_t, NodeId>> OpenClerks() const;
  std::vector<std::pair<uint32_t, NodeId>> LiveClerks() const;
  std::vector<uint32_t> ExpiredSlots() const;

  // Used when reconstructing state (restart, takeover): marks the slot open
  // with a fresh lease.
  void InstallOpen(uint32_t slot, const std::string& table, NodeId clerk);

  std::vector<SlotRecord> Snapshot() const;
  // Replaces the table with `records`, every lease fresh.
  void Restore(const std::vector<SlotRecord>& records);

  Duration lease_duration() const { return lease_duration_; }

 private:
  struct Slot {
    bool open = false;
    std::string table;
    NodeId clerk = kInvalidNode;
    TimePoint last_renew{};
    NodeId recovery_claim = kInvalidNode;
  };

  bool LiveLocked(const Slot& s, TimePoint now) const {
    return s.open && now <= s.last_renew + lease_duration_;
  }

  Clock* clock_;
  Duration lease_duration_;
  mutable std::mutex mu_;
  std::condition_variable freed_cv_;
  std::array<Slot, kNumLeaseSlots> slots_{};
};

}  // namespace frangipani

#endif  // SRC_LOCK_SLOT_TABLE_H_
