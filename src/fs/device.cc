#include "src/fs/device.h"

#include <algorithm>
#include <cstring>

namespace frangipani {

LocalDevice::LocalDevice(int num_disks, PhysDiskParams params, double string_bps) {
  for (int i = 0; i < num_disks; ++i) {
    disks_.push_back(std::make_unique<PhysDisk>(params));
  }
  if (string_bps > 0 && params.timing_enabled) {
    for (int i = 0; i < 2; ++i) {
      strings_.push_back(std::make_unique<RateLimiter>(string_bps));
    }
  }
}

Status LocalDevice::Read(uint64_t offset, uint64_t length, Bytes* out) {
  out->clear();
  out->reserve(length);
  uint64_t pos = offset;
  uint64_t end = offset + length;
  while (pos < end) {
    uint64_t index = ChunkIndexOf(pos);
    uint64_t in_chunk = pos & kChunkMask;
    uint64_t n = std::min(end - pos, kChunkSize - in_chunk);
    bool found = false;
    {
      std::lock_guard<std::mutex> guard(mu_);
      auto it = chunks_.find(index);
      if (it != chunks_.end()) {
        found = true;
        out->insert(out->end(), it->second.begin() + in_chunk,
                    it->second.begin() + in_chunk + n);
      }
    }
    if (found) {
      if (!strings_.empty()) {
        strings_[index % strings_.size()]->Transfer(n);
      }
      disks_[index % disks_.size()]->ChargeRead(pos, n);
    } else {
      out->insert(out->end(), n, 0);
    }
    pos += n;
  }
  return OkStatus();
}

Status LocalDevice::Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) {
  uint64_t pos = offset;
  size_t consumed = 0;
  while (consumed < data.size()) {
    uint64_t index = ChunkIndexOf(pos);
    uint64_t in_chunk = pos & kChunkMask;
    uint64_t n = std::min<uint64_t>(data.size() - consumed, kChunkSize - in_chunk);
    if (!strings_.empty()) {
      strings_[index % strings_.size()]->Transfer(n);
    }
    disks_[index % disks_.size()]->ChargeWrite(pos, n);
    {
      std::lock_guard<std::mutex> guard(mu_);
      Bytes& chunk = chunks_[index];
      if (chunk.empty()) {
        chunk.assign(kChunkSize, 0);
      }
      std::memcpy(chunk.data() + in_chunk, data.data() + consumed, n);
    }
    pos += n;
    consumed += n;
  }
  return OkStatus();
}

Status LocalDevice::Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) {
  if ((offset & kChunkMask) != 0 || (length & kChunkMask) != 0) {
    return InvalidArgument("decommit range must be chunk aligned");
  }
  std::lock_guard<std::mutex> guard(mu_);
  for (uint64_t index = ChunkIndexOf(offset); index < ChunkIndexOf(offset + length); ++index) {
    chunks_.erase(index);
  }
  return OkStatus();
}

void LocalDevice::SetNvram(bool on) {
  for (auto& disk : disks_) {
    disk->set_nvram(on);
  }
}

}  // namespace frangipani
