// Write-ahead redo logging of metadata (§4).
//
// Each Frangipani server owns one 128 KB log region in Petal, written as
// 512-byte sectors. Every sector carries a monotonically increasing sequence
// number so recovery can find the end of the circular log even if the disk
// controller reorders writes; the sector position on disk is seq %
// num_sectors. Records describe byte-range updates to metadata blocks and
// carry a new version number per block; recovery applies an update only if
// the on-disk block's version is older, which makes replay idempotent and
// safe under multiple logs. Records are CRC-protected so a torn tail is
// detected and ignored.
//
// Log space is reserved when a record is appended, so a flush always has
// room for what is pending. An append that would overfill the log first
// reclaims the oldest 25%: the owner writes out every metadata block those
// records updated that the disk does not yet hold (via the reclaim
// callback), and only then does the window advance. A later record of a
// block may be a diff against the image an older one left, so the older
// record's space is reused only once the disk holds the block; and since
// the owner finds those blocks through its cache, a reclaim stops short of
// any record whose blocks are not in the cache yet.
#ifndef SRC_FS_WAL_H_
#define SRC_FS_WAL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <vector>

#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/fs/device.h"
#include "src/fs/layout.h"
#include "src/obs/trace.h"

namespace frangipani {

// What kind of metadata block an update targets; determines block size and
// where the version number lives inside the block.
enum class BlockKind : uint8_t {
  kInode = 1,   // 512 B, version at byte 8
  kMeta4k = 2,  // 4 KB (directory data / bitmap segment), version at byte 0
};

uint32_t BlockKindSize(BlockKind kind);
uint32_t BlockKindVersionOffset(BlockKind kind);

// Reads/writes the version field inside a block image.
uint64_t BlockVersionOf(BlockKind kind, const Bytes& block);
void SetBlockVersion(BlockKind kind, Bytes& block, uint64_t version);

struct LogBlockUpdate {
  uint64_t addr = 0;  // block base address on the virtual disk
  BlockKind kind = BlockKind::kMeta4k;
  uint64_t version = 0;  // the block's version after this update
  struct Range {
    uint32_t off = 0;  // byte offset within the block
    Bytes data;
  };
  std::vector<Range> ranges;
};

// Encoded size of a Range besides its bytes: offset and length.
inline constexpr uint32_t kLogRangeHeader = 8;

// The ranges that turn `before` into `after` (equal sizes, a multiple of 8):
// the byte spans where they differ, with spans less than kLogRangeHeader
// apart merged, since the header of a second range would cost more than
// the equal bytes between them. Empty when the images are equal.
std::vector<LogBlockUpdate::Range> DiffRanges(const Bytes& before, const Bytes& after);

struct LogRecord {
  uint64_t lsn = 0;  // assigned by LogWriter::Append
  std::vector<LogBlockUpdate> updates;

  Bytes Encode() const;  // framed: magic, length, payload, crc
  size_t EncodedSize() const;
};

inline constexpr uint32_t kLogSectorSize = 512;
inline constexpr uint32_t kLogSectorHeader = 8 /*seq*/ + 2 /*used*/;
inline constexpr uint32_t kLogSectorPayload = kLogSectorSize - kLogSectorHeader;
inline constexpr uint32_t kLogRecordMagic = 0x46474C52;  // "FGLR"

class LogWriter {
 public:
  // `reclaim` is invoked, outside any flush, when an append would overflow
  // the log: the callee must write out every metadata block that a record
  // with lsn <= the argument updated and the disk does not yet hold (after
  // which those records are dead weight and their space is reused). It may
  // flush the log.
  // `lease_expiry_us` supplies the write-fencing timestamp (may return 0).
  // `node_id` tags this writer's flight-recorder spans with the owning
  // simulated machine (0 = unattributed).
  LogWriter(BlockDevice* device, const Geometry& geometry, uint32_t slot,
            std::function<Status(uint64_t up_to_lsn)> reclaim,
            std::function<int64_t()> lease_expiry_us, uint32_t node_id = 0);

  // Buffers the record in memory and returns its lsn. The record is not
  // durable until FlushTo/FlushAll. Reclaims space first if the log cannot
  // hold it after what is pending; if that fails, the record is dropped and
  // the error returned. `apply(lsn)`, when given, runs once the lsn is
  // assigned, outside the writer's locks: the caller puts the blocks the
  // record updated into its cache there, marked with the lsn. Until it
  // returns, no reclaim passes the record. Its error is returned, but the
  // record stays appended.
  StatusOr<uint64_t> Append(LogRecord record,
                            const std::function<Status(uint64_t lsn)>& apply = {});

  // Makes every record with lsn <= `lsn` durable in the log region in Petal.
  // One caller at a time writes (the leader), and it writes every record
  // pending when it starts, so callers queued behind it whose records that
  // covers return without a write of their own (group commit).
  Status FlushTo(uint64_t lsn);
  Status FlushAll();

  uint64_t next_lsn() const;
  uint64_t flushed_lsn() const;
  uint64_t sectors_written() const;

 private:
  struct LiveRecord {
    uint64_t lsn;
    uint64_t first_seq;  // sectors this record occupies on disk
    uint64_t last_seq;
  };

  Status FlushLocked(uint64_t lsn, std::unique_lock<std::mutex>& lk);
  // Reclaims the oldest records until `sectors` more fit, waiting for an
  // unapplied record when only it holds the space (caller holds
  // reclaim_mu_, and mu_ through `lk`, which is dropped while reclaiming).
  Status MakeRoomLocked(uint64_t sectors, std::unique_lock<std::mutex>& lk);
  // True when the live span, the sectors reserved for pending records and
  // `sectors` more fit in the log (caller holds mu_).
  bool FitsLocked(uint64_t sectors) const {
    return next_seq_ - tail_seq_ + pending_sectors_ + sectors <= num_sectors_;
  }

  BlockDevice* device_;
  Geometry geometry_;
  uint32_t slot_;
  uint32_t num_sectors_;
  std::function<Status(uint64_t)> reclaim_;
  std::function<int64_t()> lease_expiry_us_;
  uint32_t node_id_;

  mutable std::mutex mu_;
  std::deque<std::pair<uint64_t, Bytes>> pending_;  // (lsn, encoded record)
  uint64_t pending_sectors_ = 0;  // reserved by pending_: one sector run per record
  std::deque<LiveRecord> live_;   // flushed, not yet reclaimed
  std::set<uint64_t> unapplied_;  // appended, their Append's `apply` still running
  std::condition_variable applied_cv_;  // an lsn left unapplied_
  uint64_t next_lsn_ = 1;
  uint64_t flushed_lsn_ = 0;
  uint64_t next_seq_ = 1;   // next sector sequence number; moves only on a successful write
  uint64_t tail_seq_ = 1;   // oldest live sector (not yet reclaimable space)
  bool flushing_ = false;
  int flush_waiters_ = 0;  // FlushTo callers inside FlushLocked (incl. leader)
  std::condition_variable flush_cv_;
  std::mutex reclaim_mu_;  // one reclaim at a time; taken before mu_

  // Registry handles, resolved once at construction.
  obs::Counter* m_appends_;
  obs::Counter* m_group_commits_;       // leader writes that served >1 caller
  obs::Counter* m_group_commit_batched_;  // flushes satisfied by another caller's write
  Histogram* m_flush_us_;
  Histogram* m_group_commit_records_;   // records per leader write
};

// ---- Recovery (§4) ----

// Parses the log region of `slot` and redoes every intact record whose block
// versions are newer than what is on disk. Returns the number of records
// applied. Used by the recovery demon on behalf of a crashed server.
StatusOr<uint64_t> ReplayLog(BlockDevice* device, const Geometry& geometry, uint32_t slot,
                             int64_t lease_expiry_us);

// Zeroes the log region ("frees the log") after successful recovery.
Status EraseLog(BlockDevice* device, const Geometry& geometry, uint32_t slot,
                int64_t lease_expiry_us);

// Exposed for tests: decodes the sector stream into records.
std::vector<LogRecord> ParseLogStream(const Bytes& region, uint32_t num_sectors);

}  // namespace frangipani

#endif  // SRC_FS_WAL_H_
