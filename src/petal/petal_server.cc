#include "src/petal/petal_server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

int PetalServerDurable::TakeDisk() {
  std::lock_guard<std::mutex> guard(disks_mu);
  auto least = std::min_element(disk_blobs.begin(), disk_blobs.end());
  ++*least;
  return static_cast<int>(least - disk_blobs.begin());
}

void PetalServerDurable::FreeDisk(int disk) {
  std::lock_guard<std::mutex> guard(disks_mu);
  --disk_blobs[disk];
}

bool PetalServerDurable::HasChunk(const ChunkKey& key) {
  PetalStoreShard& shard = ShardFor(key.index);
  std::lock_guard<std::mutex> guard(shard.mu);
  return shard.chunks.count(key) > 0;
}

int PetalServerDurable::DiskOf(const ChunkKey& key) {
  PetalStoreShard& shard = ShardFor(key.index);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.chunks.find(key);
  return it == shard.chunks.end() ? -1 : shard.blobs[it->second].disk;
}

uint64_t PetalServerDurable::TotalChunks() {
  uint64_t n = 0;
  for (PetalStoreShard& shard : shards) {
    std::lock_guard<std::mutex> guard(shard.mu);
    n += shard.chunks.size();
  }
  return n;
}

uint64_t PetalServerDurable::TotalBlobs() {
  uint64_t n = 0;
  for (PetalStoreShard& shard : shards) {
    std::lock_guard<std::mutex> guard(shard.mu);
    n += shard.blobs.size();
  }
  return n;
}

std::vector<uint64_t> PetalServerDurable::DiskBlobCounts() {
  std::lock_guard<std::mutex> guard(disks_mu);
  return disk_blobs;
}

PetalServer::PetalServer(Network* net, NodeId self, std::vector<NodeId> paxos_group,
                         std::vector<NodeId> initial_active, PetalServerDurable* durable,
                         PetalServerOptions options, Clock* clock)
    : net_(net),
      self_(self),
      durable_(durable),
      options_(options),
      clock_(clock) {
  {
    std::lock_guard<std::mutex> guard(durable_->disks_mu);
    if (durable_->disks.empty()) {
      for (int i = 0; i < options_.num_disks; ++i) {
        durable_->disks.push_back(std::make_unique<PhysDisk>(options_.disk));
      }
      durable_->disk_blobs.assign(durable_->disks.size(), 0);
    }
  }
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_repl_msgs_ = reg->GetCounter("petal.server.repl_msgs");
  m_repl_bytes_ = reg->GetCounter("petal.server.repl_bytes");
  m_store_wait_us_ = reg->GetHistogram("petal.store_wait_us");
  m_server_read_us_ = reg->GetHistogram("petal.server_read_us");
  m_server_write_us_ = reg->GetHistogram("petal.server_write_us");
  m_resync_us_ = reg->GetHistogram("petal.resync_us");
  m_resync_bytes_ = reg->GetCounter("petal.resync_bytes");
  m_resync_pull_errors_ = reg->GetCounter("petal.resync_pull_errors");
  m_resync_degraded_ = reg->GetCounter("petal.resync_degraded");
  m_resync_inflight_ = reg->GetGauge("petal.resync_inflight");
  m_resync_inflight_peak_ = reg->GetGauge("petal.resync_inflight_peak");
  map_.servers = std::move(initial_active);
  paxos_ = std::make_unique<PaxosPeer>(
      net_, self_, std::move(paxos_group), &durable_->paxos,
      [this](uint64_t index, const Bytes& cmd) { return OnApply(index, cmd); });
  net_->RegisterService(self_, kServiceName, this);
  // Replay any commands already decided before this (re)start.
  paxos_->CatchUp();
}

PetalServer::~PetalServer() {
  net_->UnregisterService(self_, kServiceName);
  net_->UnregisterService(self_, PaxosPeer::kServiceName);
}

PaxosPeer::ApplyResult PetalServer::OnApply(uint64_t index, const Bytes& raw_cmd) {
  StatusOr<PetalCommand> cmd = PetalCommand::Decode(raw_cmd);
  if (!cmd.ok()) {
    FLOG(ERROR) << "petal: dropping malformed command at " << index;
    return cmd.status();
  }
  std::lock_guard<std::mutex> map_guard(map_mu_);
  VdiskId result = ApplyPetalCommand(map_, *cmd);
  if ((cmd->kind == PetalCommandKind::kSnapshotVdisk ||
       cmd->kind == PetalCommandKind::kCloneVdisk) &&
      result != kInvalidVdisk) {
    // COW: the snapshot shares every blob the source currently has here.
    // A blob's chunk index (and thus shard) is the same for source and
    // snapshot, so each shard can be processed independently.
    for (PetalStoreShard& shard : durable_->shards) {
      std::lock_guard<std::mutex> store_guard(shard.mu);
      std::vector<std::pair<ChunkKey, uint64_t>> to_copy;
      for (const auto& [key, handle] : shard.chunks) {
        if (key.vdisk == cmd->vdisk) {
          to_copy.emplace_back(ChunkKey{result, key.index}, handle);
        }
      }
      for (const auto& [key, handle] : to_copy) {
        shard.chunks[key] = handle;
        shard.blobs[handle].refs++;
      }
    }
  }
  if (cmd->kind == PetalCommandKind::kDeleteVdisk) {
    for (PetalStoreShard& shard : durable_->shards) {
      std::lock_guard<std::mutex> store_guard(shard.mu);
      std::vector<ChunkKey> to_drop;
      for (const auto& [key, handle] : shard.chunks) {
        if (key.vdisk == cmd->vdisk) {
          to_drop.push_back(key);
        }
      }
      for (const ChunkKey& key : to_drop) {
        DropChunkLocked(shard, key);
      }
    }
  }
  return uint64_t{result};
}

StatusOr<VdiskId> PetalServer::ProposeVdiskCommand(PetalCommand cmd) {
  ASSIGN_OR_RETURN(uint64_t id, paxos_->Propose(cmd.Encode()));
  if (id == kInvalidVdisk) {
    return NotFound("vdisk command failed (bad source vdisk?)");
  }
  return static_cast<VdiskId>(id);
}

Status PetalServer::ProposeAddServer(NodeId server) {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kAddServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

Status PetalServer::ProposeRemoveServer(NodeId server) {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kRemoveServer;
  cmd.server = server;
  return paxos_->Propose(cmd.Encode()).status();
}

StatusOr<VdiskId> PetalServer::CreateVdisk() {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kCreateVdisk;
  return ProposeVdiskCommand(cmd);
}

StatusOr<VdiskId> PetalServer::SnapshotVdisk(VdiskId src) {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kSnapshotVdisk;
  cmd.vdisk = src;
  return ProposeVdiskCommand(cmd);
}

StatusOr<VdiskId> PetalServer::CloneVdisk(VdiskId src) {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kCloneVdisk;
  cmd.vdisk = src;
  return ProposeVdiskCommand(cmd);
}

Status PetalServer::DeleteVdisk(VdiskId id) {
  PetalCommand cmd;
  cmd.kind = PetalCommandKind::kDeleteVdisk;
  cmd.vdisk = id;
  return paxos_->Propose(cmd.Encode()).status();
}

void PetalServer::SetReady(bool ready) { ready_.store(ready); }

PetalGlobalMap PetalServer::MapSnapshot() const {
  std::lock_guard<std::mutex> guard(map_mu_);
  return map_;
}

uint64_t PetalServer::chunk_count() const { return durable_->TotalChunks(); }

std::unique_lock<std::mutex> PetalServer::LockShard(PetalStoreShard& shard) {
  std::unique_lock<std::mutex> lk(shard.mu, std::defer_lock);
  obs::LockTimed(lk, m_store_wait_us_);
  return lk;
}

void PetalServer::ChargeStoreLocked(size_t bytes) {
  if (options_.store_copy_bps <= 0 || bytes == 0) {
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(
      static_cast<double>(bytes) / options_.store_copy_bps));
}

BlobMeta* PetalServer::FindChunkLocked(PetalStoreShard& shard, const ChunkKey& key) {
  auto it = shard.chunks.find(key);
  if (it == shard.chunks.end()) {
    return nullptr;
  }
  return &shard.blobs[it->second];
}

Status PetalServer::CheckLease(int64_t lease_expiry_us) const {
  if (lease_expiry_us == 0) {
    return OkStatus();
  }
  int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       clock_->Now().time_since_epoch())
                       .count();
  if (now_us > lease_expiry_us) {
    return PermissionDenied("fenced: lease expired");
  }
  return OkStatus();
}

Status PetalServer::CheckWritableVdiskLocked(VdiskId vdisk) const {
  auto it = map_.vdisks.find(vdisk);
  if (it == map_.vdisks.end()) {
    return Status(StatusCode::kFailedPrecondition, "unknown vdisk");
  }
  if (it->second.read_only) {
    return PermissionDenied("vdisk is a read-only snapshot");
  }
  return OkStatus();
}

const BlobMeta& PetalServer::ApplyWriteLocked(PetalStoreShard& shard, const ChunkKey& key,
                                              uint32_t offset_in_chunk, const Bytes& data,
                                              uint64_t forced_version) {
  auto it = shard.chunks.find(key);
  uint64_t handle;
  if (it == shard.chunks.end()) {
    handle = shard.next_handle++;
    BlobMeta& blob = shard.blobs[handle];
    blob.refs = 1;
    blob.disk = durable_->TakeDisk();
    blob.data.assign(kChunkSize, 0);
    shard.chunks[key] = handle;
  } else {
    handle = it->second;
    BlobMeta& blob = shard.blobs[handle];
    if (blob.refs > 1) {
      // Copy-on-write: the blob is shared with a snapshot.
      uint64_t fresh = shard.next_handle++;
      BlobMeta& copy = shard.blobs[fresh];
      copy.refs = 1;
      copy.disk = durable_->TakeDisk();
      copy.version = shard.blobs[handle].version;
      copy.data = shard.blobs[handle].data;
      shard.blobs[handle].refs--;
      shard.chunks[key] = fresh;
      handle = fresh;
      ChargeStoreLocked(kChunkSize);  // the COW copy itself
    }
  }
  BlobMeta& blob = shard.blobs[handle];
  FGP_CHECK(offset_in_chunk + data.size() <= kChunkSize);
  std::copy(data.begin(), data.end(), blob.data.begin() + offset_in_chunk);
  blob.version = forced_version != 0 ? forced_version : blob.version + 1;
  ChargeStoreLocked(data.size());
  return blob;
}

void PetalServer::DropChunkLocked(PetalStoreShard& shard, const ChunkKey& key) {
  auto it = shard.chunks.find(key);
  if (it == shard.chunks.end()) {
    return;
  }
  uint64_t handle = it->second;
  shard.chunks.erase(it);
  BlobMeta& blob = shard.blobs[handle];
  if (--blob.refs == 0) {
    durable_->FreeDisk(blob.disk);
    shard.blobs.erase(handle);
  }
}

void PetalServer::ForwardToPeer(const ChunkKey& key, uint32_t offset_in_chunk, const Bytes& data,
                                uint64_t version) {
  Replicas place;
  {
    std::lock_guard<std::mutex> guard(map_mu_);
    place = PlaceChunk(map_, key.index);
  }
  NodeId peer = place.primary == self_ ? place.secondary : place.primary;
  if (peer == self_ || peer == kInvalidNode || !place.Contains(self_)) {
    return;
  }
  Encoder enc;
  enc.PutU32(key.vdisk);
  enc.PutU64(key.index);
  enc.PutU32(offset_in_chunk);
  enc.PutU64(version);
  enc.PutBytes(data);
  m_repl_msgs_->Increment();
  m_repl_bytes_->Increment(data.size());
  StatusOr<Bytes> reply = net_->Call(self_, peer, kServiceName, kReplicaWrite, enc.buffer());
  if (!reply.ok()) {
    // Peer down or partitioned: degraded mode. The peer resyncs on restart.
    return;
  }
  Decoder dec(reply.value());
  if (dec.GetU8() == 2) {
    // Peer needs the full chunk (it missed earlier deltas).
    Bytes full;
    uint64_t full_version = 0;
    {
      PetalStoreShard& shard = durable_->ShardFor(key.index);
      std::unique_lock<std::mutex> lk = LockShard(shard);
      BlobMeta* blob = FindChunkLocked(shard, key);
      if (blob == nullptr) {
        return;
      }
      full = blob->data;
      full_version = blob->version;
      ChargeStoreLocked(full.size());
    }
    // Best effort: an unconfirmed gap-fill just means the peer resyncs later.
    (void)PushChunkConfirmed(peer, key, full_version, full);
  }
}

StatusOr<Bytes> PetalServer::Handle(uint32_t method, const Bytes& request, NodeId from) {
  Decoder dec(request);
  switch (method) {
    case kRead:
      return DoRead(dec);
    case kWrite:
      return DoWrite(dec);
    case kReplicaWrite:
      return DoReplicaWrite(dec);
    case kPushChunk:
      return DoPushChunk(dec);
    case kPullChunk:
      return DoPullChunk(dec);
    case kDecommit:
      return DoDecommit(dec);
    case kGetMap:
      return DoGetMap();
    case kCreateVdisk: {
      StatusOr<VdiskId> id = CreateVdisk();
      if (!id.ok()) {
        return id.status();
      }
      Encoder enc;
      enc.PutU32(*id);
      return enc.Take();
    }
    case kSnapshotVdisk:
    case kCloneVdisk: {
      VdiskId src = dec.GetU32();
      if (!dec.ok()) {
        return InvalidArgument("bad snapshot/clone request");
      }
      StatusOr<VdiskId> id =
          method == kSnapshotVdisk ? SnapshotVdisk(src) : CloneVdisk(src);
      if (!id.ok()) {
        return id.status();
      }
      Encoder enc;
      enc.PutU32(*id);
      return enc.Take();
    }
    case kDeleteVdisk: {
      VdiskId id = dec.GetU32();
      RETURN_IF_ERROR(DeleteVdisk(id));
      return Bytes{};
    }
    case kListChunksFor:
      return DoListChunksFor(dec);
    default:
      return InvalidArgument("unknown petal method");
  }
}

StatusOr<Bytes> PetalServer::DoRead(Decoder& dec) {
  obs::SpanScope span(obs::Layer::kPetal, m_server_read_us_, "petal.read", self_);
  VdiskId vdisk = dec.GetU32();
  uint64_t offset = dec.GetU64();
  uint32_t length = dec.GetU32();
  span.arg0("chunk", ChunkIndexOf(offset));
  span.arg1("bytes", length);
  if (!dec.ok()) {
    return InvalidArgument("bad read request");
  }
  if (!ready_.load()) {
    return Unavailable("petal server resyncing");
  }
  uint64_t index = ChunkIndexOf(offset);
  if (ChunkIndexOf(offset + length - 1) != index) {
    return InvalidArgument("read spans chunks");
  }
  {
    std::lock_guard<std::mutex> guard(map_mu_);
    if (map_.vdisks.count(vdisk) == 0) {
      return Status(StatusCode::kFailedPrecondition, "unknown vdisk");
    }
    if (!PlaceChunk(map_, index).Contains(self_)) {
      return Status(StatusCode::kFailedPrecondition, "not a replica for this chunk");
    }
  }
  uint32_t off_in_chunk = static_cast<uint32_t>(offset & kChunkMask);
  Bytes out;
  int disk = -1;
  {
    PetalStoreShard& shard = durable_->ShardFor(index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, {vdisk, index});
    if (blob != nullptr) {
      disk = blob->disk;
      out.assign(blob->data.begin() + off_in_chunk, blob->data.begin() + off_in_chunk + length);
      ChargeStoreLocked(length);
    }
  }
  if (disk < 0) {
    // Sparse virtual disk: uncommitted ranges read as zeros, at no disk cost.
    out.assign(length, 0);
    return out;
  }
  Disk(disk).ChargeRead(offset, length);
  return out;
}

StatusOr<Bytes> PetalServer::DoWrite(Decoder& dec) {
  obs::SpanScope span(obs::Layer::kPetal, m_server_write_us_, "petal.write", self_);
  VdiskId vdisk = dec.GetU32();
  uint64_t offset = dec.GetU64();
  int64_t lease_expiry_us = dec.GetI64();
  Bytes data = dec.GetBytes();
  span.arg0("chunk", ChunkIndexOf(offset));
  span.arg1("bytes", data.size());
  if (!dec.ok() || data.empty()) {
    return InvalidArgument("bad write request");
  }
  if (!ready_.load()) {
    return Unavailable("petal server resyncing");
  }
  // §6 hazard fix: reject writes whose issuing lease has already expired.
  RETURN_IF_ERROR(CheckLease(lease_expiry_us));
  uint64_t index = ChunkIndexOf(offset);
  if (ChunkIndexOf(offset + data.size() - 1) != index) {
    return InvalidArgument("write spans chunks");
  }
  {
    std::lock_guard<std::mutex> guard(map_mu_);
    RETURN_IF_ERROR(CheckWritableVdiskLocked(vdisk));
    if (!PlaceChunk(map_, index).Contains(self_)) {
      return Status(StatusCode::kFailedPrecondition, "not a replica for this chunk");
    }
  }
  uint32_t off_in_chunk = static_cast<uint32_t>(offset & kChunkMask);
  uint64_t version;
  int disk;
  {
    PetalStoreShard& shard = durable_->ShardFor(index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    const BlobMeta& blob = ApplyWriteLocked(shard, {vdisk, index}, off_in_chunk, data, 0);
    version = blob.version;
    disk = blob.disk;
  }
  // The modeled disk access and the synchronous replica forward are
  // independent once the blob is updated: reserve the disk, forward, then
  // wait out whatever is left of the disk's time, so the ack pays
  // max(disk, RTT) instead of their sum.
  const TimePoint disk_done = Disk(disk).ReserveWrite(offset, data.size());
  ForwardToPeer({vdisk, index}, off_in_chunk, data, version);
  if (disk_done > std::chrono::steady_clock::now()) {
    std::this_thread::sleep_until(disk_done);
  }
  return Bytes{};
}

StatusOr<Bytes> PetalServer::DoReplicaWrite(Decoder& dec) {
  obs::SpanScope span(obs::Layer::kPetal, m_server_write_us_, "petal.replica_write", self_);
  VdiskId vdisk = dec.GetU32();
  uint64_t index = dec.GetU64();
  uint32_t off_in_chunk = dec.GetU32();
  uint64_t version = dec.GetU64();
  Bytes data = dec.GetBytes();
  span.arg0("chunk", index);
  span.arg1("bytes", data.size());
  if (!dec.ok()) {
    return InvalidArgument("bad replica write");
  }
  Encoder enc;
  int disk = -1;  // set iff the delta was applied
  {
    PetalStoreShard& shard = durable_->ShardFor(index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, {vdisk, index});
    uint64_t local_version = blob != nullptr ? blob->version : 0;
    if (version == local_version + 1) {
      disk = ApplyWriteLocked(shard, {vdisk, index}, off_in_chunk, data, version).disk;
      enc.PutU8(1);  // applied
    } else if (version <= local_version) {
      enc.PutU8(1);  // stale duplicate; already have newer
    } else {
      enc.PutU8(2);  // gap: need the full chunk
    }
  }
  // Only an applied delta touches the disk; stale duplicates and gap
  // replies must not burn modeled disk time.
  if (disk >= 0) {
    Disk(disk).ChargeWrite(ChunkBase(index) + off_in_chunk, data.size());
  }
  return enc.Take();
}

StatusOr<Bytes> PetalServer::DoPushChunk(Decoder& dec) {
  VdiskId vdisk = dec.GetU32();
  uint64_t index = dec.GetU64();
  uint64_t version = dec.GetU64();
  Bytes data = dec.GetBytes();
  if (!dec.ok() || data.size() != kChunkSize) {
    return InvalidArgument("bad push chunk");
  }
  int disk = -1;  // set iff the push was applied
  uint64_t held_version = 0;  // version this server holds after the push
  {
    PetalStoreShard& shard = durable_->ShardFor(index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, {vdisk, index});
    uint64_t local_version = blob != nullptr ? blob->version : 0;
    if (version > local_version) {
      disk = ApplyWriteLocked(shard, {vdisk, index}, 0, data, version).disk;
      held_version = version;
    } else {
      held_version = local_version;
    }
  }
  const bool applied = disk >= 0;
  if (applied) {
    Disk(disk).ChargeWrite(ChunkBase(index), data.size());
  }
  // The reply carries what this server now holds: the pusher must not treat
  // a bare transport OK as proof of replication (see PushChunkConfirmed).
  Encoder enc;
  enc.PutU8(applied ? 1 : 0);
  enc.PutU64(held_version);
  return enc.Take();
}

StatusOr<Bytes> PetalServer::DoPullChunk(Decoder& dec) {
  VdiskId vdisk = dec.GetU32();
  uint64_t index = dec.GetU64();
  if (!dec.ok()) {
    return InvalidArgument("bad pull chunk");
  }
  Encoder enc;
  Bytes data;
  uint64_t version = 0;
  int disk = -1;
  {
    PetalStoreShard& shard = durable_->ShardFor(index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, {vdisk, index});
    if (blob != nullptr) {
      disk = blob->disk;
      version = blob->version;
      data = blob->data;
      ChargeStoreLocked(data.size());
    }
  }
  const bool found = disk >= 0;
  if (found) {
    Disk(disk).ChargeRead(ChunkBase(index), data.size());
  }
  enc.PutBool(found);
  enc.PutU64(version);
  enc.PutBytes(data);
  return enc.Take();
}

StatusOr<Bytes> PetalServer::DoDecommit(Decoder& dec) {
  VdiskId vdisk = dec.GetU32();
  uint64_t first = dec.GetU64();
  uint64_t count = dec.GetU64();
  int64_t lease_expiry_us = dec.GetI64();
  if (!dec.ok() || first + count < first) {
    return InvalidArgument("bad decommit");
  }
  // A decommit destroys data as a write does, so it passes the same fence
  // and vdisk checks.
  RETURN_IF_ERROR(CheckLease(lease_expiry_us));
  {
    std::lock_guard<std::mutex> guard(map_mu_);
    RETURN_IF_ERROR(CheckWritableVdiskLocked(vdisk));
  }
  // Drops every chunk of [first, first + count) this server holds. A shard
  // owns the indices congruent to its position, so a short range is probed
  // index by index and a long (sparse) one scans the shard's directory.
  const uint64_t n = durable_->shards.size();
  for (uint64_t s = 0; s < n; ++s) {
    PetalStoreShard& shard = durable_->shards[s];
    std::unique_lock<std::mutex> lk = LockShard(shard);
    if (count / n <= shard.chunks.size()) {
      for (uint64_t index = first + (s + n - first % n) % n; index - first < count; index += n) {
        DropChunkLocked(shard, {vdisk, index});
      }
      continue;
    }
    std::vector<ChunkKey> doomed;
    for (const auto& [key, handle] : shard.chunks) {
      if (key.vdisk == vdisk && key.index - first < count) {
        doomed.push_back(key);
      }
    }
    for (const ChunkKey& key : doomed) {
      DropChunkLocked(shard, key);
    }
  }
  return Bytes{};
}

StatusOr<Bytes> PetalServer::DoGetMap() {
  Encoder enc;
  std::lock_guard<std::mutex> guard(map_mu_);
  map_.Encode(enc);
  return enc.Take();
}

StatusOr<Bytes> PetalServer::DoListChunksFor(Decoder& dec) {
  NodeId target = dec.GetU32();
  if (!dec.ok()) {
    return InvalidArgument("bad list request");
  }
  PetalGlobalMap map = MapSnapshot();
  Encoder enc;
  std::vector<std::pair<ChunkKey, uint64_t>> hits;
  for (PetalStoreShard& shard : durable_->shards) {
    std::unique_lock<std::mutex> lk = LockShard(shard);
    for (const auto& [key, handle] : shard.chunks) {
      if (PlaceChunk(map, key.index).Contains(target)) {
        hits.emplace_back(key, shard.blobs[handle].version);
      }
    }
  }
  enc.PutU32(static_cast<uint32_t>(hits.size()));
  for (const auto& [key, version] : hits) {
    enc.PutU32(key.vdisk);
    enc.PutU64(key.index);
    enc.PutU64(version);
  }
  return enc.Take();
}

bool PetalServer::PushChunkConfirmed(NodeId peer, const ChunkKey& key, uint64_t version,
                                     const Bytes& data) {
  Encoder push;
  push.PutU32(key.vdisk);
  push.PutU64(key.index);
  push.PutU64(version);
  push.PutBytes(data);
  StatusOr<Bytes> r = net_->Call(self_, peer, kServiceName, kPushChunk, push.buffer());
  if (!r.ok()) {
    return false;
  }
  // A transport-level OK is not proof of replication: the peer may have
  // rejected the push (bad decode) or replied with garbage. Only a decoded
  // reply showing the peer holds >= our version confirms it.
  Decoder dec(r.value());
  dec.GetU8();  // applied flag; informational ("already newer" confirms too)
  uint64_t held_version = dec.GetU64();
  return dec.ok() && held_version >= version;
}

void PetalServer::RebalanceChunk(const PetalGlobalMap& map, const ChunkKey& key) {
  Replicas place = PlaceChunk(map, key.index);
  Bytes data;
  uint64_t version = 0;
  {
    PetalStoreShard& shard = durable_->ShardFor(key.index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, key);
    if (blob == nullptr) {
      return;
    }
    data = blob->data;
    version = blob->version;
    ChargeStoreLocked(data.size());
  }
  bool confirmed_all = true;
  const NodeId targets[2] = {place.primary, place.secondary};
  for (int t = 0; t < 2; ++t) {
    NodeId peer = targets[t];
    if (peer == self_ || peer == kInvalidNode) {
      continue;
    }
    if (t == 1 && place.secondary == place.primary) {
      continue;  // single-server placement: one push, not two
    }
    if (!PushChunkConfirmed(peer, key, version, data)) {
      confirmed_all = false;
    }
  }
  if (!place.Contains(self_) && confirmed_all) {
    PetalStoreShard& shard = durable_->ShardFor(key.index);
    std::unique_lock<std::mutex> lk = LockShard(shard);
    BlobMeta* blob = FindChunkLocked(shard, key);
    // Re-check under the lock: drop only the version (or older) that a
    // replica confirmed holding; a concurrently arrived newer write stays.
    if (blob != nullptr && blob->version <= version) {
      DropChunkLocked(shard, key);
    }
  }
}

Status PetalServer::Rebalance() {
  paxos_->CatchUp();
  PetalGlobalMap map = MapSnapshot();
  std::vector<ChunkKey> keys;
  for (PetalStoreShard& shard : durable_->shards) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (const auto& [key, handle] : shard.chunks) {
      keys.push_back(key);
    }
  }
  ParallelForOptions pf;
  pf.inflight = m_resync_inflight_;
  pf.inflight_peak = m_resync_inflight_peak_;
  return net_->ParallelFor(
      keys.size(), kResyncWindow,
      [&](size_t i) -> Status {
        RebalanceChunk(map, keys[i]);
        return OkStatus();
      },
      pf);
}

bool PetalServer::ListChunksWithRetry(NodeId peer, Bytes* reply) {
  Encoder req;
  req.PutU32(self_);
  Duration backoff = options_.resync_backoff;
  int attempts = std::max(1, options_.resync_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    StatusOr<Bytes> r = net_->Call(self_, peer, kServiceName, kListChunksFor, req.buffer());
    if (r.ok()) {
      *reply = std::move(r.value());
      return true;
    }
  }
  return false;
}

bool PetalServer::PullChunkStriped(const ResyncCandidate& item) {
  Encoder pull;
  pull.PutU32(item.key.vdisk);
  pull.PutU64(item.key.index);
  Duration backoff = options_.resync_backoff;
  int rounds = std::max(1, options_.resync_attempts);
  for (int round = 0; round < rounds; ++round) {
    if (round > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    for (NodeId peer : item.sources) {
      StatusOr<Bytes> chunk = net_->Call(self_, peer, kServiceName, kPullChunk, pull.buffer());
      if (!chunk.ok()) {
        m_resync_pull_errors_->Increment();
        continue;  // per-peer failover: try the other replica
      }
      Decoder cdec(chunk.value());
      bool found = cdec.GetBool();
      uint64_t version = cdec.GetU64();
      Bytes data = cdec.GetBytes();
      if (!cdec.ok() || !found || data.size() != kChunkSize) {
        m_resync_pull_errors_->Increment();
        continue;
      }
      int disk = -1;  // set iff the pull was applied
      {
        // Completion applies under the owning shard's lock only: with the
        // sharded store, concurrent appliers serialize per shard, not
        // globally.
        PetalStoreShard& shard = durable_->ShardFor(item.key.index);
        std::unique_lock<std::mutex> lk = LockShard(shard);
        BlobMeta* blob = FindChunkLocked(shard, item.key);
        if (blob == nullptr || blob->version < version) {
          disk = ApplyWriteLocked(shard, item.key, 0, data, version).disk;
        }
      }
      // A pull discarded as stale never ran ApplyWriteLocked, so it must not
      // burn modeled disk time either (same audit rule as DoReplicaWrite).
      if (disk >= 0) {
        Disk(disk).ChargeWrite(ChunkBase(item.key.index), data.size());
        m_resync_bytes_->Increment(data.size());
      }
      return true;
    }
  }
  return false;
}

Status PetalServer::ResyncFromPeers() {
  int64_t t0 = obs::MonotonicNs();
  paxos_->CatchUp();
  PetalGlobalMap map = MapSnapshot();
  std::vector<NodeId> peers;
  for (NodeId peer : map.servers) {
    if (peer != self_) {
      peers.push_back(peer);
    }
  }
  if (peers.empty()) {
    ready_.store(true);  // single-server installation: nothing to sync from
    return OkStatus();
  }

  // Phase 1 — inventory: ask every peer which of our chunks it holds, at
  // what version. Merged by chunk key so a chunk replicated on two peers
  // gets both as pull sources (highest advertised version first).
  std::map<ChunkKey, ResyncCandidate> wanted;
  size_t peers_listed = 0;
  for (NodeId peer : peers) {
    Bytes reply;
    if (!ListChunksWithRetry(peer, &reply)) {
      continue;
    }
    ++peers_listed;
    Decoder dec(reply);
    uint32_t count = dec.GetU32();
    for (uint32_t i = 0; i < count && dec.ok(); ++i) {
      ChunkKey key;
      key.vdisk = dec.GetU32();
      key.index = dec.GetU64();
      uint64_t peer_version = dec.GetU64();
      ResyncCandidate& cand = wanted[key];
      cand.key = key;
      if (peer_version > cand.version) {
        cand.version = peer_version;
        cand.sources.insert(cand.sources.begin(), peer);
      } else {
        cand.sources.push_back(peer);
      }
    }
  }
  if (peers_listed == 0) {
    // Total peer failure: we cannot even know what we are missing. Claiming
    // readiness here would silently serve stale data.
    m_resync_degraded_->Increment();
    return Unavailable("resync: no peer inventory reachable; server stays not-ready");
  }

  // Keep only chunks a peer holds newer than our local copy.
  std::vector<ResyncCandidate> todo;
  for (auto& [key, cand] : wanted) {
    uint64_t local_version = 0;
    {
      PetalStoreShard& shard = durable_->ShardFor(key.index);
      std::unique_lock<std::mutex> lk = LockShard(shard);
      BlobMeta* blob = FindChunkLocked(shard, key);
      local_version = blob != nullptr ? blob->version : 0;
    }
    if (cand.version > local_version) {
      todo.push_back(std::move(cand));
    }
  }

  // Phase 2 — striped pulls: fan kPullChunk out across peers and store
  // shards under the bounded window. Individual failures never abort the
  // gather (each item retries/fails over on its own); they are tallied and
  // judged below.
  std::atomic<uint64_t> failed_chunks{0};
  ParallelForOptions pf;
  pf.inflight = m_resync_inflight_;
  pf.inflight_peak = m_resync_inflight_peak_;
  (void)net_->ParallelFor(
      todo.size(), kResyncWindow,
      [&](size_t i) -> Status {
        if (!PullChunkStriped(todo[i])) {
          failed_chunks.fetch_add(1, std::memory_order_relaxed);
        }
        return OkStatus();
      },
      pf);

  m_resync_us_->Record(static_cast<double>(obs::MonotonicNs() - t0) / 1000.0);
  uint64_t failed = failed_chunks.load(std::memory_order_relaxed);
  if (failed > 0) {
    // Some chunk a peer advertised as newer could not be pulled from any
    // source: serving now would hand out data we know is stale.
    m_resync_degraded_->Increment();
    return Unavailable("resync: " + std::to_string(failed) +
                       " chunk(s) not pulled; server stays not-ready");
  }
  if (peers_listed < peers.size()) {
    // Partial inventory: a chunk whose only live replica is a down peer is
    // unreachable no matter what we do, so serve what we have — but record
    // the degraded pass instead of pretending the resync was complete.
    m_resync_degraded_->Increment();
  }
  ready_.store(true);
  return OkStatus();
}

}  // namespace frangipani
