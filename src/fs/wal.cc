#include "src/fs/wal.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "src/base/crc32.h"
#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

uint32_t BlockKindSize(BlockKind kind) {
  return kind == BlockKind::kInode ? kInodeSize : kBlockSize;
}

uint32_t BlockKindVersionOffset(BlockKind kind) {
  return kind == BlockKind::kInode ? 8u : 0u;
}

uint64_t BlockVersionOf(BlockKind kind, const Bytes& block) {
  uint32_t off = BlockKindVersionOffset(kind);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(block[off + i]) << (8 * i);
  }
  return v;
}

void SetBlockVersion(BlockKind kind, Bytes& block, uint64_t version) {
  uint32_t off = BlockKindVersionOffset(kind);
  for (int i = 0; i < 8; ++i) {
    block[off + i] = static_cast<uint8_t>(version >> (8 * i));
  }
}

std::vector<LogBlockUpdate::Range> DiffRanges(const Bytes& before, const Bytes& after) {
  FGP_CHECK(before.size() == after.size() && after.size() % 8 == 0)
      << "DiffRanges needs equal images, a multiple of 8 bytes";
  // Equal stretches are skipped with memcmp, kStride bytes at a time; a
  // stretch that differs is scanned a word at a time, where the XOR of two
  // words locates their first and last differing bytes.
  constexpr uint32_t kStride = 128;
  auto first_byte = [](uint64_t x) {
    return std::endian::native == std::endian::little ? std::countr_zero(x) / 8
                                                      : std::countl_zero(x) / 8;
  };
  auto last_byte = [](uint64_t x) {
    return std::endian::native == std::endian::little ? 7 - std::countl_zero(x) / 8
                                                      : 7 - std::countr_zero(x) / 8;
  };
  std::vector<std::pair<uint32_t, uint32_t>> spans;  // [begin, end)
  const uint32_t size = static_cast<uint32_t>(after.size());
  for (uint32_t stretch = 0; stretch < size; stretch += kStride) {
    const uint32_t stretch_end = std::min(stretch + kStride, size);
    if (std::memcmp(before.data() + stretch, after.data() + stretch, stretch_end - stretch) == 0) {
      continue;
    }
    for (uint32_t w = stretch; w < stretch_end; w += 8) {
      uint64_t a;
      uint64_t b;
      std::memcpy(&a, before.data() + w, 8);
      std::memcpy(&b, after.data() + w, 8);
      if (a == b) {
        continue;
      }
      const uint32_t begin = w + first_byte(a ^ b);
      const uint32_t end = w + last_byte(a ^ b) + 1;
      if (!spans.empty() && begin - spans.back().second < kLogRangeHeader) {
        spans.back().second = end;
      } else {
        spans.emplace_back(begin, end);
      }
    }
  }
  std::vector<LogBlockUpdate::Range> ranges;
  ranges.reserve(spans.size());
  for (const auto& [begin, end] : spans) {
    LogBlockUpdate::Range r;
    r.off = begin;
    r.data.assign(after.begin() + begin, after.begin() + end);
    ranges.push_back(std::move(r));
  }
  return ranges;
}

Bytes LogRecord::Encode() const {
  Encoder body;
  body.PutU64(lsn);
  body.PutU32(static_cast<uint32_t>(updates.size()));
  for (const LogBlockUpdate& u : updates) {
    body.PutU64(u.addr);
    body.PutU8(static_cast<uint8_t>(u.kind));
    body.PutU64(u.version);
    body.PutU32(static_cast<uint32_t>(u.ranges.size()));
    for (const LogBlockUpdate::Range& r : u.ranges) {
      body.PutU32(r.off);
      body.PutBytes(r.data);
    }
  }
  Encoder framed;
  framed.PutU32(kLogRecordMagic);
  framed.PutU32(static_cast<uint32_t>(4 + 4 + body.size() + 4));  // total framed length
  framed.PutRaw(body.buffer().data(), body.size());
  uint32_t crc = Crc32c(framed.buffer().data(), framed.size());
  framed.PutU32(crc);
  return framed.Take();
}

size_t LogRecord::EncodedSize() const {
  size_t body = 8 + 4;  // lsn, update count
  for (const LogBlockUpdate& u : updates) {
    body += 8 + 1 + 8 + 4;  // addr, kind, version, range count
    for (const LogBlockUpdate::Range& r : u.ranges) {
      body += kLogRangeHeader + r.data.size();
    }
  }
  return 4 + 4 + body + 4;  // magic, length, body, crc
}

namespace {

// Sectors a flush of `bytes` of records can take on its own.
uint64_t SectorsFor(size_t bytes) { return (bytes + kLogSectorPayload - 1) / kLogSectorPayload; }

// Attempts to parse one framed record at the front of `buf`. Returns bytes
// consumed; 0 = need more data; -1 = garbage (resync at next sector).
int64_t TryParseRecord(const Bytes& buf, LogRecord* out) {
  if (buf.size() < 8) {
    return 0;
  }
  Decoder head(buf.data(), 8);
  uint32_t magic = head.GetU32();
  uint32_t total = head.GetU32();
  if (magic != kLogRecordMagic || total < 16 || total > (16u << 20)) {
    return -1;
  }
  if (buf.size() < total) {
    return 0;
  }
  Decoder tail(buf.data() + total - 4, 4);
  uint32_t stored_crc = tail.GetU32();
  if (Crc32c(buf.data(), total - 4) != stored_crc) {
    return -1;  // torn record
  }
  Decoder dec(buf.data() + 8, total - 12);
  LogRecord rec;
  rec.lsn = dec.GetU64();
  uint32_t nupdates = dec.GetU32();
  for (uint32_t i = 0; i < nupdates && dec.ok(); ++i) {
    LogBlockUpdate u;
    u.addr = dec.GetU64();
    u.kind = static_cast<BlockKind>(dec.GetU8());
    u.version = dec.GetU64();
    uint32_t nranges = dec.GetU32();
    for (uint32_t j = 0; j < nranges && dec.ok(); ++j) {
      LogBlockUpdate::Range r;
      r.off = dec.GetU32();
      r.data = dec.GetBytes();
      u.ranges.push_back(std::move(r));
    }
    rec.updates.push_back(std::move(u));
  }
  if (!dec.ok()) {
    return -1;
  }
  *out = std::move(rec);
  return total;
}

}  // namespace

LogWriter::LogWriter(BlockDevice* device, const Geometry& geometry, uint32_t slot,
                     std::function<Status(uint64_t)> reclaim,
                     std::function<int64_t()> lease_expiry_us, uint32_t node_id)
    : device_(device),
      geometry_(geometry),
      slot_(slot),
      num_sectors_(geometry.log_bytes / kLogSectorSize),
      reclaim_(std::move(reclaim)),
      lease_expiry_us_(std::move(lease_expiry_us)),
      node_id_(node_id) {
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  m_appends_ = reg->GetCounter("wal.appends");
  m_group_commits_ = reg->GetCounter("wal.group_commits");
  m_group_commit_batched_ = reg->GetCounter("wal.group_commit_batched");
  m_flush_us_ = reg->GetHistogram("wal.flush_us");
  m_group_commit_records_ = reg->GetHistogram("wal.group_commit_records");
}

StatusOr<uint64_t> LogWriter::Append(LogRecord record,
                                     const std::function<Status(uint64_t)>& apply) {
  obs::SpanScope span(obs::Layer::kWal, "wal.append", node_id_);
  m_appends_->Increment();
  const uint64_t sectors = SectorsFor(record.EncodedSize());
  uint64_t lsn = 0;
  {
    std::unique_lock<std::mutex> reclaim_lk(reclaim_mu_, std::defer_lock);
    std::unique_lock<std::mutex> lk(mu_);
    if (!FitsLocked(sectors)) {
      lk.unlock();
      reclaim_lk.lock();
      lk.lock();
      RETURN_IF_ERROR(MakeRoomLocked(sectors, lk));
    }
    pending_sectors_ += sectors;
    lsn = next_lsn_++;
    record.lsn = lsn;
    pending_.emplace_back(lsn, record.Encode());
    if (!apply) {
      return lsn;
    }
    unapplied_.insert(lsn);
  }
  Status st = apply(lsn);
  {
    std::lock_guard<std::mutex> guard(mu_);
    unapplied_.erase(lsn);
  }
  applied_cv_.notify_all();
  RETURN_IF_ERROR(st);
  return lsn;
}

Status LogWriter::MakeRoomLocked(uint64_t sectors, std::unique_lock<std::mutex>& lk) {
  while (!FitsLocked(sectors)) {
    // Reclaim the oldest 25% of the log, or enough for this record. A pass
    // packs records back to back, and replay finds a record only from the
    // start of a sector or right after the record before it, so records
    // sharing a sector are reclaimed together. The reclaim writes out what
    // the owner's cache holds, so it stops short of the oldest record whose
    // blocks are not in the cache yet.
    const uint64_t target = std::max<uint64_t>(num_sectors_ / 4, sectors);
    const uint64_t limit = unapplied_.empty() ? next_lsn_ : *unapplied_.begin();
    uint64_t reclaim_lsn = 0;
    for (auto it = live_.begin(); it != live_.end() && it->lsn < limit; ++it) {
      const auto next = std::next(it);
      if (next != live_.end() && next->first_seq == it->last_seq) {
        continue;  // shares its last sector with the next record
      }
      reclaim_lsn = it->lsn;
      if (it->last_seq - tail_seq_ + 1 >= target) {
        break;
      }
    }
    if (reclaim_lsn == 0 && pending_.empty()) {
      if (unapplied_.empty()) {
        return ResourceExhausted("single log record larger than the whole log");
      }
      applied_cv_.wait(lk, [&] { return unapplied_.empty() || *unapplied_.begin() != limit; });
      continue;
    }
    lk.unlock();
    Status st = OkStatus();
    if (reclaim_lsn == 0) {
      st = FlushAll();  // only pending records hold the space: make them reclaimable
    } else if (reclaim_) {
      st = reclaim_(reclaim_lsn);
    }
    lk.lock();
    RETURN_IF_ERROR(st);
    while (!live_.empty() && live_.front().lsn <= reclaim_lsn) {
      tail_seq_ = live_.front().last_seq + 1;
      live_.pop_front();
    }
    if (live_.empty()) {
      tail_seq_ = next_seq_;
    }
  }
  return OkStatus();
}

uint64_t LogWriter::next_lsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  return next_lsn_;
}

uint64_t LogWriter::flushed_lsn() const {
  std::lock_guard<std::mutex> guard(mu_);
  return flushed_lsn_;
}

uint64_t LogWriter::sectors_written() const {
  std::lock_guard<std::mutex> guard(mu_);
  return next_seq_ - 1;
}

Status LogWriter::FlushTo(uint64_t lsn) {
  obs::SpanScope span(obs::Layer::kWal, m_flush_us_, "wal.force", node_id_, "lsn", lsn);
  std::unique_lock<std::mutex> lk(mu_);
  return FlushLocked(lsn, lk);
}

Status LogWriter::FlushAll() {
  obs::SpanScope span(obs::Layer::kWal, m_flush_us_, "wal.force", node_id_);
  std::unique_lock<std::mutex> lk(mu_);
  return FlushLocked(next_lsn_ - 1, lk);
}

Status LogWriter::FlushLocked(uint64_t lsn, std::unique_lock<std::mutex>& lk) {
  auto covered = [&] { return flushed_lsn_ >= lsn || pending_.empty(); };
  if (covered()) {
    return OkStatus();
  }
  ++flush_waiters_;
  // Follower path: someone else owns the flush. Wait for it; if its write
  // covered our LSN we never touch the device (group commit). If the leader
  // failed, or gathered before our record was appended, become the leader.
  obs::WaitAsSpan(flush_cv_, lk, [&] { return !flushing_ || covered(); }, obs::Layer::kWal,
                  "wal.follower_wait", node_id_, "lsn", lsn);
  if (covered()) {
    m_group_commit_batched_->Increment();
    --flush_waiters_;
    return OkStatus();
  }
  flushing_ = true;
  // Opened only once this call owns the flush (the early-outs above are the
  // re-entrant/no-op paths); args bound below once the batch is gathered.
  obs::SpanScope span(obs::Layer::kWal, "wal.flush", node_id_);

  // Gather everything pending, not just our own LSN, so every follower
  // whose record is already appended is covered by this one write. Append
  // reserved log space for each pending record, so they all fit. Only this
  // leader removes from pending_, and appends go to its back, so the
  // gathered records stay its first `gathered` entries.
  Bytes stream;
  for (const auto& [rec_lsn, encoded] : pending_) {
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  const size_t gathered = pending_.size();
  m_group_commit_records_->Record(static_cast<int64_t>(gathered));
  const uint64_t flush_bound = pending_.back().first;
  span.arg0("lsn", flush_bound);
  span.arg1("bytes", stream.size());
  uint32_t sectors_needed = static_cast<uint32_t>(SectorsFor(stream.size()));
  FGP_CHECK(next_seq_ - tail_seq_ + sectors_needed <= num_sectors_)
      << "wal: a flush found less room than its records reserved";

  // The sectors are claimed only once the write succeeds: a failed write
  // leaves next_seq_ and live_ as they were, and the retry writes the same
  // records (and any appended since) at the same sequence numbers.
  uint64_t first_seq = next_seq_;
  int64_t fence = lease_expiry_us_ ? lease_expiry_us_() : 0;
  uint64_t log_base = geometry_.LogAddr(slot_);
  lk.unlock();

  // Build sectors and write them in contiguous runs (wrapping at the end of
  // the region). A run is one device write, so the whole sector stream goes
  // to Petal as a single contiguous transfer (scatter-gathered across
  // servers by the client when it spans chunks); sequential log writes also
  // dodge the positioning delay. Sectors are framed directly into the run
  // buffer — no per-sector allocation.
  Status st = OkStatus();
  Bytes run;
  run.reserve(static_cast<size_t>(sectors_needed) * kLogSectorSize);
  uint64_t run_start_seq = first_seq;
  auto flush_run = [&](uint64_t end_seq_exclusive) -> Status {
    if (run.empty()) {
      return OkStatus();
    }
    uint64_t pos = (run_start_seq - 1) % num_sectors_;
    Status wst = device_->Write(log_base + pos * kLogSectorSize, run, fence);
    run.clear();
    run_start_seq = end_seq_exclusive;
    return wst;
  };
  for (uint32_t i = 0; i < sectors_needed && st.ok(); ++i) {
    uint64_t seq = first_seq + i;
    size_t off = static_cast<size_t>(i) * kLogSectorPayload;
    uint16_t used = static_cast<uint16_t>(std::min<size_t>(kLogSectorPayload,
                                                           stream.size() - off));
    if ((seq - 1) % num_sectors_ == 0 && !run.empty()) {
      st = flush_run(seq);  // wrapped around: start a new run
      if (!st.ok()) {
        break;
      }
    }
    size_t base = run.size();
    run.resize(base + kLogSectorSize, 0);
    for (int b = 0; b < 8; ++b) {
      run[base + b] = static_cast<uint8_t>(seq >> (8 * b));
    }
    run[base + 8] = static_cast<uint8_t>(used & 0xFF);
    run[base + 9] = static_cast<uint8_t>(used >> 8);
    std::memcpy(run.data() + base + kLogSectorHeader, stream.data() + off, used);
  }
  if (st.ok()) {
    st = flush_run(first_seq + sectors_needed);
  }

  lk.lock();
  if (st.ok()) {
    // Move the written records to live_, with the sector span of each for
    // future reclaim.
    size_t pos = 0;
    for (size_t i = 0; i < gathered; ++i) {
      const size_t size = pending_.front().second.size();
      live_.push_back({pending_.front().first, first_seq + pos / kLogSectorPayload,
                       first_seq + (pos + size - 1) / kLogSectorPayload});
      pos += size;
      pending_sectors_ -= SectorsFor(size);
      pending_.pop_front();
    }
    next_seq_ += sectors_needed;
    flushed_lsn_ = flush_bound;
    // Group-commit accounting happens after the write, not at gather time:
    // the leader holds mu_ from entry through gather, so concurrent callers
    // can only register while the device write is in flight (lock dropped).
    // waiters > 1 here means this one write overlapped other FlushTo callers.
    if (flush_waiters_ > 1) {
      m_group_commits_->Increment();
      obs::RecordInstant(obs::Layer::kWal, "wal.group_commit", node_id_, "records", gathered,
                         "waiters", flush_waiters_);
    }
  }
  flushing_ = false;
  --flush_waiters_;
  flush_cv_.notify_all();
  return st;
}

std::vector<LogRecord> ParseLogStream(const Bytes& region, uint32_t num_sectors) {
  struct Sector {
    uint64_t seq;
    uint16_t used;
    const uint8_t* payload;
  };
  std::vector<Sector> sectors;
  for (uint32_t i = 0; i < num_sectors; ++i) {
    const uint8_t* base = region.data() + static_cast<size_t>(i) * kLogSectorSize;
    Decoder dec(base, kLogSectorHeader);
    uint64_t seq = dec.GetU64();
    uint16_t used = dec.GetU16();
    if (seq == 0 || used > kLogSectorPayload) {
      continue;
    }
    sectors.push_back({seq, used, base + kLogSectorHeader});
  }
  std::sort(sectors.begin(), sectors.end(),
            [](const Sector& a, const Sector& b) { return a.seq < b.seq; });

  std::vector<LogRecord> out;
  Bytes buffer;
  uint64_t prev_seq = 0;
  for (const Sector& s : sectors) {
    if (!buffer.empty() && s.seq != prev_seq + 1) {
      buffer.clear();  // a carried partial record lost its continuation
    }
    prev_seq = s.seq;
    buffer.insert(buffer.end(), s.payload, s.payload + s.used);
    for (;;) {
      LogRecord rec;
      int64_t consumed = TryParseRecord(buffer, &rec);
      if (consumed > 0) {
        out.push_back(std::move(rec));
        buffer.erase(buffer.begin(), buffer.begin() + consumed);
      } else if (consumed == 0) {
        break;  // need the next sector
      } else {
        buffer.clear();  // padding or torn data: resync at next sector
        break;
      }
    }
  }
  return out;
}

StatusOr<uint64_t> ReplayLog(BlockDevice* device, const Geometry& geometry, uint32_t slot,
                             int64_t lease_expiry_us) {
  uint32_t num_sectors = geometry.log_bytes / kLogSectorSize;
  Bytes region;
  RETURN_IF_ERROR(device->Read(geometry.LogAddr(slot), geometry.log_bytes, &region));
  std::vector<LogRecord> records = ParseLogStream(region, num_sectors);

  uint64_t applied = 0;
  for (const LogRecord& rec : records) {
    for (const LogBlockUpdate& u : rec.updates) {
      uint32_t size = BlockKindSize(u.kind);
      Bytes block;
      RETURN_IF_ERROR(device->Read(u.addr, size, &block));
      uint64_t disk_version = BlockVersionOf(u.kind, block);
      if (disk_version >= u.version) {
        continue;  // update already completed; never replay (§4)
      }
      for (const LogBlockUpdate::Range& r : u.ranges) {
        if (r.off + r.data.size() > size) {
          return DataLoss("log record range exceeds block");
        }
        std::memcpy(block.data() + r.off, r.data.data(), r.data.size());
      }
      SetBlockVersion(u.kind, block, u.version);
      RETURN_IF_ERROR(device->Write(u.addr, block, lease_expiry_us));
      ++applied;
    }
  }
  return applied;
}

Status EraseLog(BlockDevice* device, const Geometry& geometry, uint32_t slot,
                int64_t lease_expiry_us) {
  Bytes zeros(geometry.log_bytes, 0);
  return device->Write(geometry.LogAddr(slot), zeros, lease_expiry_us);
}

}  // namespace frangipani
