// Timing model of one physical disk drive: positioning time + transfer
// bandwidth, with an optional NVRAM write-behind cache (the paper's
// PrestoServe cards sit "directly between the physical disks and the Petal
// server software").
//
// Chunk bytes live in the Petal server's chunk store (an in-memory "disk");
// this class charges wall-clock time for the mechanical parts (real-time
// dilation). Which of a server's disks a chunk is charged to is the server's
// physical map: the disk recorded in the chunk's blob when it was created
// (PetalServer, DESIGN.md §10). An access at a position contiguous with the
// previous access to the same disk skips the positioning delay, which is
// what makes contiguously allocated logs cheap (§9.2) — as long as no other
// hot chunk shares the log's disk. With NVRAM enabled, writes complete at
// cache speed and still survive crashes (battery-backed).
#ifndef SRC_PETAL_PHYS_DISK_H_
#define SRC_PETAL_PHYS_DISK_H_

#include <cstdint>
#include <mutex>

#include "src/base/rate_limiter.h"

namespace frangipani {

struct PhysDiskParams {
  Duration seek_time{9000};                    // 9 ms average positioning (RZ29)
  double transfer_bps = 6.0 * (1 << 20);       // 6 MB/s sustained (RZ29)
  bool nvram = false;                          // writes absorbed by NVRAM
  // PrestoServe card capacity: NVRAM absorbs write bursts up to this size;
  // sustained writes throttle to the destage (disk transfer) rate.
  double nvram_bytes = 8.0 * (1 << 20);
  bool timing_enabled = true;                  // false: model disabled (unit tests)
};

class PhysDisk {
 public:
  explicit PhysDisk(PhysDiskParams params = {}) : params_(params), xfer_(params.transfer_bps) {}

  // `pos` is the chunk's virtual byte position, used only for
  // sequential-access detection: consecutive accesses to one chunk are
  // contiguous, accesses to two chunks on one disk are not. Both calls block
  // the caller for the modeled service time.
  void ChargeWrite(uint64_t pos, size_t bytes);
  void ChargeRead(uint64_t pos, size_t bytes);
  // Reserves the modeled write without waiting and returns when it
  // completes (a past time when the model is off). A caller that overlaps
  // other work with the disk sleeps until then itself.
  TimePoint ReserveWrite(uint64_t pos, size_t bytes);

  void set_nvram(bool on);
  bool nvram() const;

  // Enables/disables the timing model at runtime. Benches preload the chunk
  // store with timing off, then flip it on for the measured phase so setup
  // doesn't pay (or skew) modeled service time.
  void set_timing(bool on);

  uint64_t bytes_written() const;
  uint64_t bytes_read() const;

 private:
  TimePoint Reserve(uint64_t pos, size_t bytes, bool is_write);

  PhysDiskParams params_;
  RateLimiter xfer_;
  mutable std::mutex mu_;
  uint64_t last_end_ = ~0ull;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace frangipani

#endif  // SRC_PETAL_PHYS_DISK_H_
