// Petal's replicated global state: the list of active storage servers
// (placement epoch) and the virtual-disk directory. Mutations are Paxos
// commands applied deterministically by every Petal server.
#ifndef SRC_PETAL_GLOBAL_MAP_H_
#define SRC_PETAL_GLOBAL_MAP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/base/serial.h"
#include "src/net/network.h"
#include "src/petal/types.h"

namespace frangipani {

struct VdiskInfo {
  VdiskId id = kInvalidVdisk;
  bool read_only = false;   // snapshots are read-only (paper §8)
  VdiskId parent = kInvalidVdisk;  // source vdisk for a snapshot
};

struct PetalGlobalMap {
  uint64_t epoch = 0;                 // bumps on every membership change
  std::vector<NodeId> servers;        // active storage servers, ordered
  std::map<VdiskId, VdiskInfo> vdisks;
  VdiskId next_vdisk = 1;

  void Encode(Encoder& enc) const;
  static PetalGlobalMap Decode(Decoder& dec);
};

struct Replicas {
  NodeId primary = kInvalidNode;
  NodeId secondary = kInvalidNode;  // == primary when only one server

  bool Contains(NodeId n) const { return n == primary || n == secondary; }
};

// Data placement: 64 KB chunks are striped round-robin over the active
// servers, with the next server in ring order holding the second replica.
// Placement depends only on the chunk index (not the vdisk id) so that a
// snapshot's chunks are co-located with its source and copy-on-write stays
// server-local.
Replicas PlaceChunk(const PetalGlobalMap& map, uint64_t chunk_index);

// ---- Paxos commands ----

enum class PetalCommandKind : uint8_t {
  kAddServer = 1,
  kRemoveServer = 2,
  kCreateVdisk = 3,
  kSnapshotVdisk = 4,
  kDeleteVdisk = 5,
  kCloneVdisk = 6,  // writable copy-on-write copy (used by backup restore)
};

struct PetalCommand {
  PetalCommandKind kind{};
  NodeId server = kInvalidNode;  // Add/RemoveServer
  VdiskId vdisk = kInvalidVdisk; // Snapshot source / Delete target

  Bytes Encode() const;
  static StatusOr<PetalCommand> Decode(const Bytes& raw);
};

// Applies `cmd` to `map`. Returns the vdisk id created by Create/Snapshot
// commands (kInvalidVdisk otherwise). Idempotent for membership commands.
VdiskId ApplyPetalCommand(PetalGlobalMap& map, const PetalCommand& cmd);

}  // namespace frangipani

#endif  // SRC_PETAL_GLOBAL_MAP_H_
