// One Petal storage server. Serves 64 KB chunk reads/writes for sparse
// virtual disks, replicates writes to the chunk's secondary, participates in
// the Paxos group that maintains the global map (membership + virtual-disk
// directory), supports copy-on-write snapshots (§8), resynchronization after
// restart, and data redistribution after membership changes (§7).
//
// Durable state (the "disks", their physical map and the Paxos promises)
// lives in an externally owned PetalServerDurable, so the harness can crash
// a server (destroy the runtime object, mark the node down) and later
// restart it against the same disks.
//
// Simplifications vs. the original Petal (documented in DESIGN.md):
//  - membership changes are admin-driven (harness proposes add/remove);
//    failure handling between changes is client-side replica failover,
//  - data redistribution is an explicit Rebalance() pass rather than a
//    background transfer,
//  - no server-side block cache.
//
// Physical map: PlaceChunk picks a chunk's two servers; each server picks
// the disk. When a server creates a blob (first write, replica write, push,
// resync pull or copy-on-write copy) it puts it on its disk holding the
// fewest blobs, lowest index on ties, and records the choice in the blob.
// The disk is fixed for the blob's life and freed with its last reference.
// A server holding at most num_disks blobs therefore has them all on
// distinct disks, whatever their virtual addresses (DESIGN.md §10).
#ifndef SRC_PETAL_PETAL_SERVER_H_
#define SRC_PETAL_PETAL_SERVER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/paxos/paxos.h"
#include "src/petal/global_map.h"
#include "src/petal/phys_disk.h"
#include "src/petal/types.h"

namespace frangipani {

struct PetalServerOptions {
  int num_disks = 9;          // paper: 9 RZ29 drives per server
  PhysDiskParams disk;
  // Modeled chunk-store service rate (bytes/sec): the time the owning shard
  // is occupied moving a payload into or out of its blob (memory-system
  // occupancy, charged as a real sleep while the shard lock is held — the
  // same real-time dilation PhysDisk and Network use). 0 disables the model
  // (unit tests); benches enable it so server-side serialization shows up
  // in wall-clock throughput no matter how many host cores exist.
  double store_copy_bps = 0;

  // ---- recovery (ResyncFromPeers / Rebalance) ----
  // Bounded retries for peer inventory listings and per-chunk pulls; the
  // backoff doubles between rounds.
  int resync_attempts = 3;
  Duration resync_backoff{2000};  // 2 ms
};

struct BlobMeta {
  uint32_t refs = 0;      // how many (vdisk, chunk) slots point at this blob
  uint64_t version = 0;   // monotonically increasing per logical chunk write
  int disk = 0;           // the physical disk holding it (the physical map)
  Bytes data;             // kChunkSize bytes
};

inline constexpr int kPetalStoreShards = 16;

// One shard of the chunk store: its own lock, blob map, chunk directory,
// and handle counter (handles are scoped to the shard). Chunks are assigned
// to shards by chunk index, so a logical chunk and every vdisk that shares
// its blob via snapshot/clone COW (same index, different vdisk) live in the
// same shard — refcount updates never cross shards.
struct PetalStoreShard {
  std::mutex mu;
  std::unordered_map<uint64_t, BlobMeta> blobs;
  std::unordered_map<ChunkKey, uint64_t, ChunkKeyHash> chunks;  // -> blob handle
  uint64_t next_handle = 1;
};

// The durable half of a Petal server: contents survive a simulated crash.
// The chunk store is sharded so concurrent client streams touching
// different chunks never contend on one mutex.
struct PetalServerDurable {
  PaxosDurableState paxos;
  std::array<PetalStoreShard, kPetalStoreShards> shards;
  // Guards `disks` (created by the first server started on this durable)
  // and `disk_blobs`, the number of blobs each disk holds. Taken inside a
  // shard lock when a blob is created or freed.
  std::mutex disks_mu;
  std::vector<std::unique_ptr<PhysDisk>> disks;
  std::vector<uint64_t> disk_blobs;

  PetalStoreShard& ShardFor(uint64_t chunk_index) {
    return shards[chunk_index % shards.size()];
  }

  // Picks the disk holding the fewest blobs (lowest index on ties) and
  // counts a new blob on it; FreeDisk gives the slot back.
  int TakeDisk();
  void FreeDisk(int disk);

  // Cross-shard introspection (tests, assertions). Shards are locked one at
  // a time, so the result is a sum of per-shard snapshots, not an atomic
  // whole-store snapshot.
  bool HasChunk(const ChunkKey& key);
  int DiskOf(const ChunkKey& key);  // the chunk's disk, -1 if absent
  uint64_t TotalChunks();
  uint64_t TotalBlobs();
  std::vector<uint64_t> DiskBlobCounts();
};

class PetalServer : public Service {
 public:
  enum Method : uint32_t {
    kRead = 1,
    kWrite = 2,
    kReplicaWrite = 3,
    kPushChunk = 4,
    kPullChunk = 5,
    kDecommit = 6,
    kGetMap = 7,
    kCreateVdisk = 8,
    kSnapshotVdisk = 9,
    kDeleteVdisk = 10,
    kListChunksFor = 11,
    kCloneVdisk = 12,
  };

  static constexpr const char* kServiceName = "petal";
  // Max pull/push RPCs in flight during a resync or rebalance pass.
  static constexpr uint32_t kResyncWindow = 8;

  // `initial_active` must be identical for every server of the installation:
  // it seeds the epoch-0 global map that Paxos commands then evolve.
  PetalServer(Network* net, NodeId self, std::vector<NodeId> paxos_group,
              std::vector<NodeId> initial_active, PetalServerDurable* durable,
              PetalServerOptions options, Clock* clock);
  ~PetalServer() override;

  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override;

  // ---- Administration (called by the harness / any server) ----
  Status ProposeAddServer(NodeId server);
  Status ProposeRemoveServer(NodeId server);
  StatusOr<VdiskId> CreateVdisk();
  StatusOr<VdiskId> SnapshotVdisk(VdiskId src);
  StatusOr<VdiskId> CloneVdisk(VdiskId src);
  Status DeleteVdisk(VdiskId id);

  // Pushes every locally held chunk to its current replicas (fanned out
  // under kResyncWindow) and drops chunks this server no longer hosts —
  // but only once a placed replica's reply confirms it holds at least our
  // version. Run on every server after membership change.
  Status Rebalance();

  // Pulls chunks this server should hold but has stale/missing, fanning
  // kPullChunk RPCs across peers and store shards under a bounded in-flight
  // window (kResyncWindow), then marks the server ready. Run after a
  // restart, before taking client traffic. If no peer inventory is
  // reachable, or some chunk known to be newer on a peer could not be
  // pulled after bounded retries, the server is left NOT ready and an
  // Unavailable status is returned (petal.resync_degraded counts these) —
  // claiming readiness there would silently serve stale data.
  Status ResyncFromPeers();

  void SetReady(bool ready);
  bool ready() const { return ready_.load(); }
  PetalGlobalMap MapSnapshot() const;
  PaxosPeer* paxos() { return paxos_.get(); }

  uint64_t chunk_count() const;

 private:
  // Applies one replicated command; returns the vdisk id a Create,
  // Snapshot or Clone made (kInvalidVdisk otherwise).
  PaxosPeer::ApplyResult OnApply(uint64_t index, const Bytes& raw_cmd);
  StatusOr<VdiskId> ProposeVdiskCommand(PetalCommand cmd);

  // Request handlers.
  StatusOr<Bytes> DoRead(Decoder& dec);
  StatusOr<Bytes> DoWrite(Decoder& dec);
  StatusOr<Bytes> DoReplicaWrite(Decoder& dec);
  StatusOr<Bytes> DoPushChunk(Decoder& dec);
  StatusOr<Bytes> DoPullChunk(Decoder& dec);
  StatusOr<Bytes> DoDecommit(Decoder& dec);
  StatusOr<Bytes> DoGetMap();
  StatusOr<Bytes> DoListChunksFor(Decoder& dec);

  // Acquires `shard.mu`, recording the wait in petal.store_wait_us.
  std::unique_lock<std::mutex> LockShard(PetalStoreShard& shard);
  // Modeled store occupancy for moving `bytes` payload bytes; sleeps while
  // the caller holds the shard lock (see PetalServerOptions::store_copy_bps).
  void ChargeStoreLocked(size_t bytes);

  // Store helpers. Caller must hold `shard.mu` for the key's shard.
  BlobMeta* FindChunkLocked(PetalStoreShard& shard, const ChunkKey& key);
  // Applies a byte-range write; allocates/COWs the blob as needed, placing
  // a new blob on the least-loaded disk. Returns the written blob (valid
  // while the shard lock is held). Charges the store copy model for the
  // payload.
  const BlobMeta& ApplyWriteLocked(PetalStoreShard& shard, const ChunkKey& key,
                                   uint32_t offset_in_chunk, std::span<const uint8_t> data,
                                   uint64_t forced_version);
  // Unmaps the chunk; the last reference frees its blob and its disk slot.
  void DropChunkLocked(PetalStoreShard& shard, const ChunkKey& key);

  PhysDisk& Disk(int disk) { return *durable_->disks[disk]; }
  // The checks a mutating call (write, decommit) passes before it touches
  // the store: the issuing lease has not expired (§6 fence; 0 = unfenced),
  // and the vdisk exists and is writable (caller holds map_mu_).
  Status CheckLease(int64_t lease_expiry_us) const;
  Status CheckWritableVdiskLocked(VdiskId vdisk) const;
  void ForwardToPeer(const ChunkKey& key, uint32_t offset_in_chunk,
                     std::span<const uint8_t> data, uint64_t version);

  // ---- recovery helpers ----
  // One chunk this server should refresh: the highest version any peer
  // listed, plus every peer that listed it (best version first) for
  // per-chunk failover when a pull fails.
  struct ResyncCandidate {
    ChunkKey key;
    uint64_t version = 0;
    std::vector<NodeId> sources;
  };
  // kListChunksFor with bounded retry/backoff; true once a reply arrived.
  bool ListChunksWithRetry(NodeId peer, Bytes* reply);
  // Pulls one chunk, trying each source in turn for resync_attempts rounds.
  // Returns true once a structurally valid pull was applied — or discarded
  // as stale, which means the store already holds something at least as new.
  bool PullChunkStriped(const ResyncCandidate& item);
  // Pushes a full chunk to `peer` and returns true only if the decoded reply
  // confirms the peer now holds at least `version`.
  bool PushChunkConfirmed(NodeId peer, const ChunkKey& key, uint64_t version, const Bytes& data);
  // One Rebalance work item: push to the chunk's placed replicas, then drop
  // the local copy iff this server is no longer a replica and every push was
  // confirmed.
  void RebalanceChunk(const PetalGlobalMap& map, const ChunkKey& key);

  Network* net_;
  NodeId self_;
  PetalServerDurable* durable_;
  PetalServerOptions options_;
  Clock* clock_;

  mutable std::mutex map_mu_;
  PetalGlobalMap map_;

  std::atomic<bool> ready_{true};  // false: hold client I/O until ResyncFromPeers

  std::unique_ptr<PaxosPeer> paxos_;

  // Replication fan-out accounting (primary -> secondary pushes).
  obs::Counter* m_repl_msgs_;
  obs::Counter* m_repl_bytes_;
  // Store contention + server-side op latency.
  Histogram* m_store_wait_us_;
  Histogram* m_server_read_us_;
  Histogram* m_server_write_us_;
  // Recovery observability (ResyncFromPeers / Rebalance).
  Histogram* m_resync_us_;
  obs::Counter* m_resync_bytes_;
  obs::Counter* m_resync_pull_errors_;
  obs::Counter* m_resync_degraded_;
  obs::Gauge* m_resync_inflight_;
  obs::Gauge* m_resync_inflight_peak_;
};

}  // namespace frangipani

#endif  // SRC_PETAL_PETAL_SERVER_H_
