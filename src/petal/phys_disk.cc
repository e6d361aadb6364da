#include "src/petal/phys_disk.h"

#include <thread>

namespace frangipani {

TimePoint PhysDisk::Reserve(uint64_t pos, size_t bytes, bool is_write) {
  bool timing_enabled;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (is_write) {
      bytes_written_ += bytes;
    } else {
      bytes_read_ += bytes;
    }
    timing_enabled = params_.timing_enabled;
  }
  if (!timing_enabled) {
    return TimePoint{};
  }
  if (is_write && params_.nvram) {
    // NVRAM write-behind: the card absorbs bursts up to its capacity and
    // destages to the platter at the transfer rate (no positioning cost:
    // the controller schedules destage). A writer only waits once it is
    // more than one card's worth ahead of the destage stream.
    TimePoint deadline = xfer_.Acquire(bytes);
    auto burst = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(params_.nvram_bytes / params_.transfer_bps));
    return deadline - burst;
  }
  bool sequential;
  {
    std::lock_guard<std::mutex> guard(mu_);
    // Treat anything within one chunk of the previous access end as part of
    // the same physical locality (no repositioning).
    sequential = last_end_ != ~0ull && pos >= last_end_ - std::min<uint64_t>(last_end_, 1 << 16) &&
                 pos <= last_end_ + (1 << 16);
    last_end_ = pos + bytes;
  }
  TimePoint deadline = xfer_.Acquire(bytes);
  if (!sequential) {
    deadline += params_.seek_time;
  }
  return deadline;
}

namespace {
void SleepUntil(TimePoint t) {
  if (t > std::chrono::steady_clock::now()) {
    std::this_thread::sleep_until(t);
  }
}
}  // namespace

void PhysDisk::ChargeWrite(uint64_t pos, size_t bytes) { SleepUntil(Reserve(pos, bytes, true)); }
void PhysDisk::ChargeRead(uint64_t pos, size_t bytes) { SleepUntil(Reserve(pos, bytes, false)); }

TimePoint PhysDisk::ReserveWrite(uint64_t pos, size_t bytes) { return Reserve(pos, bytes, true); }

void PhysDisk::set_nvram(bool on) {
  std::lock_guard<std::mutex> guard(mu_);
  params_.nvram = on;
}

bool PhysDisk::nvram() const {
  std::lock_guard<std::mutex> guard(mu_);
  return params_.nvram;
}

void PhysDisk::set_timing(bool on) {
  std::lock_guard<std::mutex> guard(mu_);
  params_.timing_enabled = on;
}

uint64_t PhysDisk::bytes_written() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_written_;
}

uint64_t PhysDisk::bytes_read() const {
  std::lock_guard<std::mutex> guard(mu_);
  return bytes_read_;
}

}  // namespace frangipani
