#include "src/petal/petal_client.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "src/base/logging.h"
#include "src/obs/recorder.h"
#include "src/petal/petal_server.h"

namespace frangipani {

PetalClient::PetalClient(Network* net, NodeId self, std::vector<NodeId> bootstrap_servers)
    : net_(net), self_(self), bootstrap_(std::move(bootstrap_servers)) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_read_us_ = reg->GetHistogram("petal.read_us");
  m_write_us_ = reg->GetHistogram("petal.write_us");
  m_chunk_us_ = reg->GetHistogram("petal.chunk_us");
  m_read_bytes_ = reg->GetCounter("petal.read_bytes");
  m_write_bytes_ = reg->GetCounter("petal.write_bytes");
  m_failovers_ = reg->GetCounter("petal.failover");
  m_decommit_errors_ = reg->GetCounter("petal.decommit_errors");
  m_inflight_ = reg->GetGauge("petal.inflight");
  m_inflight_peak_ = reg->GetGauge("petal.inflight_peak");
}

Status PetalClient::RefreshMap() {
  for (NodeId server : bootstrap_) {
    StatusOr<Bytes> reply =
        net_->Call(self_, server, PetalServer::kServiceName, PetalServer::kGetMap, Bytes{});
    if (!reply.ok()) {
      continue;
    }
    Decoder dec(reply.value());
    PetalGlobalMap map = PetalGlobalMap::Decode(dec);
    if (!dec.ok()) {
      continue;
    }
    std::lock_guard<std::mutex> guard(mu_);
    if (!have_map_ || map.epoch >= map_.epoch) {
      map_ = std::move(map);
      have_map_ = true;
    }
    return OkStatus();
  }
  return Unavailable("no petal server reachable for map refresh");
}

PetalGlobalMap PetalClient::MapSnapshot() const {
  std::lock_guard<std::mutex> guard(mu_);
  return map_;
}

Status PetalClient::ForEachChunk(size_t count, const std::function<Status(size_t)>& op) {
  ParallelForOptions pf;
  pf.inflight = m_inflight_;
  pf.inflight_peak = m_inflight_peak_;
  return net_->ParallelFor(self_, count, kIoWindow, op, pf);
}

StatusOr<Bytes> PetalClient::ChunkCall(uint64_t chunk_index, uint32_t method,
                                       const Bytes& request) {
  obs::SpanScope span(obs::Layer::kPetal, m_chunk_us_, "petal.chunk", self_, "chunk",
                      chunk_index, "method", method);
  constexpr int kAttempts = 3;
  Status last = Unavailable("no attempt made");
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    Replicas place;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (!have_map_) {
        last = Unavailable("no map");
      } else {
        place = PlaceChunk(map_, chunk_index);
      }
    }
    if (place.primary == kInvalidNode) {
      RETURN_IF_ERROR(RefreshMap());
      continue;
    }
    for (NodeId server : {place.primary, place.secondary}) {
      if (server == kInvalidNode) {
        continue;
      }
      StatusOr<Bytes> reply = net_->Call(self_, server, PetalServer::kServiceName, method, request);
      if (reply.ok()) {
        return reply;
      }
      last = reply.status();
      if (last.code() == StatusCode::kPermissionDenied ||
          last.code() == StatusCode::kInvalidArgument) {
        return last;  // fenced write / malformed: do not fail over
      }
      if (server == place.secondary || place.secondary == place.primary) {
        break;
      }
      // kUnavailable or kFailedPrecondition: try the other replica.
      m_failovers_->Increment();
    }
    // Both replicas failed: our map may be stale.
    Status refresh = RefreshMap();
    if (!refresh.ok()) {
      return last;
    }
  }
  return last;
}

StatusOr<Bytes> PetalClient::AnyCall(uint32_t method, const Bytes& request) {
  Status last = Unavailable("no petal server reachable");
  for (NodeId server : bootstrap_) {
    StatusOr<Bytes> reply = net_->Call(self_, server, PetalServer::kServiceName, method, request);
    if (reply.ok()) {
      return reply;
    }
    last = reply.status();
    if (last.code() != StatusCode::kUnavailable) {
      return last;
    }
  }
  return last;
}

namespace {

// One chunk-granularity slice of a larger transfer.
struct ChunkSpan {
  uint64_t index = 0;    // chunk index
  uint64_t pos = 0;      // absolute byte position of the slice
  uint32_t n = 0;        // slice length
  size_t data_off = 0;   // offset into the transfer's buffer
};

std::vector<ChunkSpan> SplitIntoChunks(uint64_t offset, uint64_t length) {
  std::vector<ChunkSpan> spans;
  spans.reserve(static_cast<size_t>(length / kChunkSize) + 2);
  uint64_t pos = offset;
  uint64_t end = offset + length;
  while (pos < end) {
    uint64_t index = ChunkIndexOf(pos);
    uint64_t chunk_end = ChunkBase(index) + kChunkSize;
    uint32_t n = static_cast<uint32_t>(std::min(end, chunk_end) - pos);
    spans.push_back({index, pos, n, static_cast<size_t>(pos - offset)});
    pos += n;
  }
  return spans;
}

}  // namespace

Status PetalClient::Read(VdiskId vdisk, uint64_t offset, uint64_t length, Bytes* out) {
  obs::SpanScope span(obs::Layer::kPetal, m_read_us_, "petal.client_read", self_);
  m_read_bytes_->Increment(length);
  // Preallocate so concurrent sub-reads land in place; reassembly in order
  // is then free (each slice is disjoint).
  out->assign(length, 0);
  if (length == 0) {
    return OkStatus();
  }
  std::vector<ChunkSpan> spans = SplitIntoChunks(offset, length);
  uint8_t* base = out->data();
  return ForEachChunk(spans.size(), [&](size_t i) -> Status {
    const ChunkSpan& s = spans[i];
    Encoder enc;
    enc.PutU32(vdisk);
    enc.PutU64(s.pos);
    enc.PutU32(s.n);
    ASSIGN_OR_RETURN(Bytes piece, ChunkCall(s.index, PetalServer::kRead, enc.buffer()));
    if (piece.size() != s.n) {
      return IoError("short read from petal");
    }
    std::memcpy(base + s.data_off, piece.data(), s.n);
    return OkStatus();
  });
}

Status PetalClient::Write(VdiskId vdisk, uint64_t offset, const Bytes& data,
                          int64_t lease_expiry_us) {
  obs::SpanScope span(obs::Layer::kPetal, m_write_us_, "petal.client_write", self_);
  m_write_bytes_->Increment(data.size());
  if (data.empty()) {
    return OkStatus();
  }
  std::vector<ChunkSpan> spans = SplitIntoChunks(offset, data.size());
  return ForEachChunk(spans.size(), [&](size_t i) {
    const ChunkSpan& s = spans[i];
    Encoder enc;
    enc.PutU32(vdisk);
    enc.PutU64(s.pos);
    enc.PutI64(lease_expiry_us);
    // Encode straight from the source range: no intermediate per-chunk copy.
    enc.PutBytes(std::span<const uint8_t>(data).subspan(s.data_off, s.n));
    return ChunkCall(s.index, PetalServer::kWrite, enc.buffer()).status();
  });
}

Status PetalClient::Decommit(VdiskId vdisk, uint64_t offset, uint64_t length,
                             int64_t lease_expiry_us) {
  const uint64_t first = ChunkIndexOf(offset);
  const uint64_t count = ChunkIndexOf(offset + length) - first;
  obs::SpanScope span(obs::Layer::kPetal, "petal.decommit", self_, "chunk", first, "chunks",
                      count);
  if ((offset & kChunkMask) != 0 || (length & kChunkMask) != 0) {
    return InvalidArgument("decommit range must be chunk aligned");
  }
  if (count == 0) {
    return OkStatus();
  }
  Encoder enc;
  enc.PutU32(vdisk);
  enc.PutU64(first);
  enc.PutU64(count);
  enc.PutI64(lease_expiry_us);
  // One range call to every server holding a replica of some chunk of the
  // range; each drops the chunks of the range it holds. A chunk is done
  // once one of its two replicas acked (a lagging replica resyncs on
  // restart); every failed call is counted, and a chunk no replica acked
  // retries after a map refresh.
  constexpr int kAttempts = 2;
  Status last = Unavailable("no replica for decommit");
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    // Placement repeats every servers.size() chunks (PlaceChunk), so the
    // first min(count, servers) chunks name every replica holder.
    std::vector<Replicas> places;
    {
      std::lock_guard<std::mutex> guard(mu_);
      if (have_map_) {
        uint64_t distinct = std::min<uint64_t>(count, map_.servers.size());
        for (uint64_t i = 0; i < distinct; ++i) {
          places.push_back(PlaceChunk(map_, first + i));
        }
      }
    }
    std::vector<NodeId> holders;
    for (const Replicas& r : places) {
      for (NodeId server : {r.primary, r.secondary}) {
        if (server != kInvalidNode &&
            std::find(holders.begin(), holders.end(), server) == holders.end()) {
          holders.push_back(server);
        }
      }
    }
    std::vector<NodeId> acked;
    for (NodeId server : holders) {
      Status st = net_->Call(self_, server, PetalServer::kServiceName, PetalServer::kDecommit,
                             enc.buffer())
                      .status();
      if (st.ok()) {
        acked.push_back(server);
        continue;
      }
      last = st;
      m_decommit_errors_->Increment();
      if (!decommit_error_logged_.exchange(true)) {
        FLOG(WARN) << "petal decommit RPC failed (further failures only counted in "
                      "petal.decommit_errors): "
                   << st;
      }
      if (st.code() == StatusCode::kPermissionDenied ||
          st.code() == StatusCode::kInvalidArgument) {
        return st;  // fenced / read-only / malformed: no replica will differ
      }
    }
    auto acked_by = [&](NodeId n) {
      return std::find(acked.begin(), acked.end(), n) != acked.end();
    };
    if (!places.empty() && std::all_of(places.begin(), places.end(), [&](const Replicas& r) {
          return acked_by(r.primary) || acked_by(r.secondary);
        })) {
      return OkStatus();
    }
    RETURN_IF_ERROR(RefreshMap());
  }
  return last;
}

StatusOr<VdiskId> PetalClient::CreateVdisk() {
  ASSIGN_OR_RETURN(Bytes reply, AnyCall(PetalServer::kCreateVdisk, Bytes{}));
  Decoder dec(reply);
  VdiskId id = dec.GetU32();
  if (!dec.ok() || id == kInvalidVdisk) {
    return Internal("bad create-vdisk reply");
  }
  RETURN_IF_ERROR(RefreshMap());
  return id;
}

StatusOr<VdiskId> PetalClient::Snapshot(VdiskId src) {
  Encoder enc;
  enc.PutU32(src);
  ASSIGN_OR_RETURN(Bytes reply, AnyCall(PetalServer::kSnapshotVdisk, enc.buffer()));
  Decoder dec(reply);
  VdiskId id = dec.GetU32();
  if (!dec.ok() || id == kInvalidVdisk) {
    return Internal("bad snapshot reply");
  }
  RETURN_IF_ERROR(RefreshMap());
  return id;
}

StatusOr<VdiskId> PetalClient::Clone(VdiskId src) {
  Encoder enc;
  enc.PutU32(src);
  ASSIGN_OR_RETURN(Bytes reply, AnyCall(PetalServer::kCloneVdisk, enc.buffer()));
  Decoder dec(reply);
  VdiskId id = dec.GetU32();
  if (!dec.ok() || id == kInvalidVdisk) {
    return Internal("bad clone reply");
  }
  RETURN_IF_ERROR(RefreshMap());
  return id;
}

Status PetalClient::DeleteVdisk(VdiskId id) {
  Encoder enc;
  enc.PutU32(id);
  RETURN_IF_ERROR(AnyCall(PetalServer::kDeleteVdisk, enc.buffer()).status());
  return RefreshMap();
}

}  // namespace frangipani
