#include "src/petal/global_map.h"

#include <algorithm>

namespace frangipani {

void PetalGlobalMap::Encode(Encoder& enc) const {
  enc.PutU64(epoch);
  enc.PutU32(static_cast<uint32_t>(servers.size()));
  for (NodeId s : servers) {
    enc.PutU32(s);
  }
  enc.PutU32(static_cast<uint32_t>(vdisks.size()));
  for (const auto& [id, info] : vdisks) {
    enc.PutU32(id);
    enc.PutBool(info.read_only);
    enc.PutU32(info.parent);
  }
  enc.PutU32(next_vdisk);
}

PetalGlobalMap PetalGlobalMap::Decode(Decoder& dec) {
  PetalGlobalMap map;
  map.epoch = dec.GetU64();
  uint32_t nservers = dec.GetU32();
  for (uint32_t i = 0; i < nservers && dec.ok(); ++i) {
    map.servers.push_back(dec.GetU32());
  }
  uint32_t nvdisks = dec.GetU32();
  for (uint32_t i = 0; i < nvdisks && dec.ok(); ++i) {
    VdiskInfo info;
    info.id = dec.GetU32();
    info.read_only = dec.GetBool();
    info.parent = dec.GetU32();
    map.vdisks[info.id] = info;
  }
  map.next_vdisk = dec.GetU32();
  return map;
}

Replicas PlaceChunk(const PetalGlobalMap& map, uint64_t chunk_index) {
  Replicas r;
  size_t n = map.servers.size();
  if (n == 0) {
    return r;
  }
  r.primary = map.servers[chunk_index % n];
  r.secondary = map.servers[(chunk_index + 1) % n];
  return r;
}

Bytes PetalCommand::Encode() const {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(kind));
  enc.PutU32(server);
  enc.PutU32(vdisk);
  return enc.Take();
}

StatusOr<PetalCommand> PetalCommand::Decode(const Bytes& raw) {
  Decoder dec(raw);
  PetalCommand cmd;
  cmd.kind = static_cast<PetalCommandKind>(dec.GetU8());
  cmd.server = dec.GetU32();
  cmd.vdisk = dec.GetU32();
  if (!dec.ok()) {
    return InvalidArgument("malformed petal command");
  }
  return cmd;
}

VdiskId ApplyPetalCommand(PetalGlobalMap& map, const PetalCommand& cmd) {
  switch (cmd.kind) {
    case PetalCommandKind::kAddServer: {
      if (std::find(map.servers.begin(), map.servers.end(), cmd.server) == map.servers.end()) {
        map.servers.push_back(cmd.server);
        ++map.epoch;
      }
      return kInvalidVdisk;
    }
    case PetalCommandKind::kRemoveServer: {
      auto it = std::find(map.servers.begin(), map.servers.end(), cmd.server);
      if (it != map.servers.end()) {
        map.servers.erase(it);
        ++map.epoch;
      }
      return kInvalidVdisk;
    }
    case PetalCommandKind::kCreateVdisk: {
      VdiskId id = map.next_vdisk++;
      map.vdisks[id] = VdiskInfo{id, false, kInvalidVdisk};
      return id;
    }
    case PetalCommandKind::kSnapshotVdisk: {
      auto it = map.vdisks.find(cmd.vdisk);
      if (it == map.vdisks.end()) {
        return kInvalidVdisk;
      }
      VdiskId id = map.next_vdisk++;
      map.vdisks[id] = VdiskInfo{id, /*read_only=*/true, cmd.vdisk};
      return id;
    }
    case PetalCommandKind::kCloneVdisk: {
      auto it = map.vdisks.find(cmd.vdisk);
      if (it == map.vdisks.end()) {
        return kInvalidVdisk;
      }
      VdiskId id = map.next_vdisk++;
      map.vdisks[id] = VdiskInfo{id, /*read_only=*/false, cmd.vdisk};
      return id;
    }
    case PetalCommandKind::kDeleteVdisk: {
      map.vdisks.erase(cmd.vdisk);
      return kInvalidVdisk;
    }
  }
  return kInvalidVdisk;
}

}  // namespace frangipani
