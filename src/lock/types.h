// Lock service vocabulary (§6): multiple-reader/single-writer locks organized
// in tables named by ASCII strings; individual locks named by 64-bit
// integers. Clerks obtain a lease on open; the lease identifier doubles as
// the Frangipani server's log slot (§7: "determines which portion of the log
// space to use from the lease identifier").
//
// The second half of this file is the lock protocol's one wire codec: a
// struct per message body with Encode() and a Decode() that rejects
// malformed input. The clerk and the lock server both speak through it, as
// do the distributed variant's replicated commands and the primary/backup
// variant's state blob.
#ifndef SRC_LOCK_TYPES_H_
#define SRC_LOCK_TYPES_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/net/network.h"

namespace frangipani {

using LockId = uint64_t;

enum class LockMode : uint8_t {
  kNone = 0,
  kShared = 1,
  kExclusive = 2,
};

// Byte-range extent attached to a lock name (Lustre-style extent locks).
// Metadata locks always use the full range [0, kRangeEnd), which preserves
// the original whole-lock semantics; inode *data* locks carve the file's
// byte space into independently held extents so writers to disjoint ranges
// never conflict.
inline constexpr uint64_t kRangeEnd = ~0ull;

struct LockRange {
  uint64_t start = 0;
  uint64_t end = kRangeEnd;  // exclusive

  bool full() const { return start == 0 && end == kRangeEnd; }
  bool empty() const { return start >= end; }
  bool Overlaps(const LockRange& o) const { return start < o.end && o.start < end; }
  bool Contains(const LockRange& o) const { return start <= o.start && o.end <= end; }
  bool operator==(const LockRange& o) const { return start == o.start && end == o.end; }
};

inline LockRange FullRange() { return LockRange{}; }
inline LockRange MakeRange(uint64_t start, uint64_t end) { return LockRange{start, end}; }

inline const char* LockModeName(LockMode m) {
  switch (m) {
    case LockMode::kNone:
      return "none";
    case LockMode::kShared:
      return "shared";
    case LockMode::kExclusive:
      return "exclusive";
  }
  return "?";
}

// Lease slots: the paper reserves 256 logs, one per active server.
inline constexpr uint32_t kNumLeaseSlots = 256;
inline constexpr uint32_t kInvalidSlot = ~0u;

// The distributed implementation partitions locks into ~100 groups (§6).
inline constexpr uint32_t kNumLockGroups = 100;

inline uint32_t LockGroupOf(LockId lock) {
  uint64_t h = lock * 0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>((h >> 32) % kNumLockGroups);
}

// Default lease duration (paper: 30 s) and the safety margin a server leaves
// before lease expiry when touching Petal (paper: 15 s). Benchmarks and tests
// scale these down.
inline constexpr Duration kDefaultLeaseDuration{30'000'000};
inline constexpr Duration kDefaultLeaseMargin{15'000'000};

// Wire methods of the lock server (service name "lockd"). Requests, releases
// and revokes carry a byte range [start, end); whole-lock callers pass
// [0, kRangeEnd). A request reply returns the granted range, which may be
// larger than the request (grant expansion).
enum LockServerMethod : uint32_t {
  kLockOpen = 1,           // LockOpenRequest -> LockOpenReply
  kLockClose = 2,          // LockSlotRequest -> {}
  kLockRenew = 3,          // LockSlotRequest -> LockRenewReply
  kLockRequest = 4,        // LockModeRequest -> LockGrantReply (blocks)
  kLockRelease = 5,        // LockModeRequest (mode = mode left held) -> {}
  kLockGetAssignment = 6,  // {} -> LockAssignment
  kLockAck = 8,            // LockAckRequest: clerk acknowledges a grant
};

// Methods of the clerk-side callback service (service name "lockclerk").
enum LockClerkMethod : uint32_t {
  kClerkRevoke = 1,       // ClerkRevokeRequest -> {} after flush+downgrade
  kClerkRecoverSlot = 2,  // LockSlotRequest (the dead slot) -> {} after log replay
  kClerkListHeld = 3,     // {} -> ClerkHeldReply, for reconstruction
};

inline bool ModesCompatible(LockMode held, LockMode wanted) {
  return held == LockMode::kShared && wanted == LockMode::kShared;
}

// ---- wire codec ----
// Fixed-width little-endian fields (src/base/serial.h). Decode() returns
// InvalidArgument for a truncated body or a mode byte above kExclusive.

struct LockOpenRequest {
  std::string table;
  Bytes Encode() const;
  static StatusOr<LockOpenRequest> Decode(const Bytes& raw);
};

struct LockOpenReply {
  uint32_t slot = kInvalidSlot;
  int64_t lease_us = 0;
  Bytes Encode() const;
  static StatusOr<LockOpenReply> Decode(const Bytes& raw);
};

// Close and renew; also the clerk's recover-slot call (there: the dead slot).
struct LockSlotRequest {
  uint32_t slot = kInvalidSlot;
  Bytes Encode() const;
  static StatusOr<LockSlotRequest> Decode(const Bytes& raw);
};

struct LockRenewReply {
  bool ok = false;
  Bytes Encode() const;
  static StatusOr<LockRenewReply> Decode(const Bytes& raw);
};

// Request (mode = wanted mode) and release (mode = mode left held).
struct LockModeRequest {
  uint32_t slot = kInvalidSlot;
  LockId lock = 0;
  LockMode mode = LockMode::kNone;
  LockRange range;
  Bytes Encode() const;
  static StatusOr<LockModeRequest> Decode(const Bytes& raw);
};

struct LockGrantReply {
  LockRange range;
  Bytes Encode() const;
  static StatusOr<LockGrantReply> Decode(const Bytes& raw);
};

struct LockAckRequest {
  uint32_t slot = kInvalidSlot;
  LockId lock = 0;
  Bytes Encode() const;
  static StatusOr<LockAckRequest> Decode(const Bytes& raw);
};

// The active lock servers and the group -> server map; also the
// distributed variant's replicated membership state.
struct LockAssignment {
  std::vector<NodeId> servers;
  std::array<NodeId, kNumLockGroups> groups{};
  Bytes Encode() const;
  static StatusOr<LockAssignment> Decode(const Bytes& raw);
};

struct ClerkRevokeRequest {
  LockId lock = 0;
  LockMode mode = LockMode::kNone;  // mode left held after the revoke
  LockRange range;
  Bytes Encode() const;
  static StatusOr<ClerkRevokeRequest> Decode(const Bytes& raw);
};

// One held extent of one lock.
struct LockHold {
  LockId lock = 0;
  uint32_t slot = kInvalidSlot;
  LockMode mode = LockMode::kNone;
  LockRange range;
};

// A clerk's held extents; after Decode every hold carries the clerk's slot.
struct ClerkHeldReply {
  uint32_t slot = kInvalidSlot;
  std::vector<LockHold> holds;
  Bytes Encode() const;
  static StatusOr<ClerkHeldReply> Decode(const Bytes& raw);
};

// A change to the lease-slot table or (distributed variant only) to the
// lock-server membership. The distributed variant replicates these through
// Paxos; the other two apply them locally.
enum class LockCmdKind : uint8_t {
  kAddServer = 1,
  kRemoveServer = 2,
  kOpenClerk = 3,
  kCloseClerk = 4,
  kClaimRecovery = 5,
  kSlotRecovered = 6,
};

struct LockCommand {
  LockCmdKind kind{};
  NodeId server = kInvalidNode;
  std::string table;
  NodeId clerk = kInvalidNode;
  uint32_t slot = kInvalidSlot;
  Bytes Encode() const;
  static StatusOr<LockCommand> Decode(const Bytes& raw);
};

struct SlotRecord {
  uint32_t slot = kInvalidSlot;
  std::string table;
  NodeId clerk = kInvalidNode;
};

// The lock-server state the primary/backup variant writes through to Petal:
// the open slots and every held extent, behind a u32 byte count.
struct LockStateBlob {
  static constexpr size_t kHeaderBytes = 4;

  std::vector<SlotRecord> slots;
  std::vector<LockHold> holds;
  Bytes Encode() const;
  static StatusOr<LockStateBlob> Decode(const Bytes& raw);
  // Bytes the stored blob occupies, from its first kHeaderBytes; 0 when
  // nothing has been stored yet.
  static uint64_t StoredSize(const Bytes& header);
};

}  // namespace frangipani

#endif  // SRC_LOCK_TYPES_H_
