// The Petal "device driver" (§2.1): hides the distributed nature of Petal and
// makes the virtual disk look like an ordinary local disk. Responsible for
// locating the correct Petal server for each chunk and failing over to the
// other replica when one is unreachable.
//
// Large transfers are scatter-gathered: Read/Write split the range
// into 64 KB chunk sub-requests and issue them concurrently through the
// network's shared IO pool under a bounded in-flight window (kIoWindow).
// Each sub-request independently carries the full primary→secondary
// failover and map-refresh retry logic, and reads land directly in their
// slice of the caller's buffer, so reassembly is in order by construction. This is what stripes a single large transfer across many
// Petal servers at once (§9.2, Figures 6–7).
#ifndef SRC_PETAL_PETAL_CLIENT_H_
#define SRC_PETAL_PETAL_CLIENT_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <vector>

#include "src/base/clock.h"
#include "src/net/network.h"
#include "src/obs/trace.h"
#include "src/petal/global_map.h"
#include "src/petal/types.h"

namespace frangipani {

// Thread-safe; one instance per client machine.
class PetalClient {
 public:
  // Max chunk sub-requests in flight per transfer.
  static constexpr uint32_t kIoWindow = 8;

  PetalClient(Network* net, NodeId self, std::vector<NodeId> bootstrap_servers);

  // Reads `length` bytes at `offset` (may span chunks). Uncommitted ranges
  // read as zeros.
  Status Read(VdiskId vdisk, uint64_t offset, uint64_t length, Bytes* out);

  // Writes `data` at `offset` (may span chunks). If lease_expiry_us != 0 the
  // write is fenced: Petal rejects it once the lease has expired (§6 hazard
  // fix). The value is microseconds on the shared steady clock.
  Status Write(VdiskId vdisk, uint64_t offset, const Bytes& data, int64_t lease_expiry_us = 0);

  // Frees physical storage backing [offset, offset+length); both bounds must
  // be chunk-aligned. Sends one range call to each server that holds a
  // replica of some chunk of the range, one after another from the caller's
  // thread (at most one call per server, whatever the length). Succeeds if
  // every chunk had at least one replica ack (the other resyncs later);
  // fails only when some chunk has no reachable replica even after a map
  // refresh. Failed calls are counted in petal.decommit_errors. Fenced
  // like Write by lease_expiry_us; a fenced or malformed call
  // (PermissionDenied, InvalidArgument) fails at once, without a retry.
  Status Decommit(VdiskId vdisk, uint64_t offset, uint64_t length,
                  int64_t lease_expiry_us = 0);

  StatusOr<VdiskId> CreateVdisk();
  StatusOr<VdiskId> Snapshot(VdiskId src);   // read-only snapshot (§8)
  StatusOr<VdiskId> Clone(VdiskId src);      // writable COW copy (restore)
  Status DeleteVdisk(VdiskId id);

  Status RefreshMap();
  PetalGlobalMap MapSnapshot() const;

  NodeId node() const { return self_; }

 private:
  // Runs `method` against a replica of `chunk_index`, failing over and
  // refreshing the map as needed. Its petal.chunk scope feeds petal.chunk_us.
  StatusOr<Bytes> ChunkCall(uint64_t chunk_index, uint32_t method, const Bytes& request);
  // Runs an admin call against any reachable server.
  StatusOr<Bytes> AnyCall(uint32_t method, const Bytes& request);

  // Runs op(0..count-1) with at most kIoWindow in flight on the network's
  // IO pool; the caller's thread issues and waits. Stops issuing after the
  // first failure (in-flight ops drain) and returns that first error.
  Status ForEachChunk(size_t count, const std::function<Status(size_t)>& op);

  Network* net_;
  NodeId self_;
  std::vector<NodeId> bootstrap_;

  mutable std::mutex mu_;
  PetalGlobalMap map_;
  bool have_map_ = false;

  std::atomic<bool> decommit_error_logged_{false};

  // Registry handles, resolved once at construction.
  Histogram* m_read_us_;
  Histogram* m_write_us_;
  Histogram* m_chunk_us_;
  obs::Counter* m_read_bytes_;
  obs::Counter* m_write_bytes_;
  obs::Counter* m_failovers_;
  obs::Counter* m_decommit_errors_;
  obs::Gauge* m_inflight_;
  obs::Gauge* m_inflight_peak_;
};

}  // namespace frangipani

#endif  // SRC_PETAL_PETAL_CLIENT_H_
