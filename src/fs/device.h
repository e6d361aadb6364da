// Block-device abstraction under the file system. Frangipani runs on a
// PetalDevice (the shared, replicated virtual disk); the AdvFS-like local
// baseline runs on a LocalDevice (in-memory store striped over a set of
// PhysDisk timing models in 64 KB units, like AdvFS striping).
#ifndef SRC_FS_DEVICE_H_
#define SRC_FS_DEVICE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/petal/petal_client.h"
#include "src/petal/phys_disk.h"
#include "src/petal/types.h"

namespace frangipani {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual Status Read(uint64_t offset, uint64_t length, Bytes* out) = 0;
  // lease_expiry_us != 0 fences the write (rejected once the lease expired).
  virtual Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) = 0;
  // Frees [offset, offset+length), chunk aligned; fenced like Write.
  virtual Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) = 0;
};

class PetalDevice : public BlockDevice {
 public:
  PetalDevice(PetalClient* client, VdiskId vdisk) : client_(client), vdisk_(vdisk) {}

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    return client_->Read(vdisk_, offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    return client_->Write(vdisk_, offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return client_->Decommit(vdisk_, offset, length, lease_expiry_us);
  }

  VdiskId vdisk() const { return vdisk_; }

 private:
  PetalClient* client_;
  VdiskId vdisk_;
};

// Locally attached storage: sparse in-memory chunk store with PhysDisk timing,
// data striped over the disks in 64 KB units. The disks hang off two
// controller strings (the paper's AdvFS box: "8 DIGITAL RZ29 disks connected
// via two 10 MB/s fast SCSI strings"); each transfer also occupies its
// string, which is what bounds AdvFS streaming throughput.
class LocalDevice : public BlockDevice {
 public:
  // string_bps = 0 disables the controller model.
  LocalDevice(int num_disks, PhysDiskParams params, double string_bps = 0);

  Status Read(uint64_t offset, uint64_t length, Bytes* out) override;
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override;
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override;

  void SetNvram(bool on);

 private:
  std::vector<std::unique_ptr<PhysDisk>> disks_;
  std::vector<std::unique_ptr<RateLimiter>> strings_;  // SCSI controller strings
  std::mutex mu_;
  std::map<uint64_t, Bytes> chunks_;  // chunk index -> 64 KB
};

}  // namespace frangipani

#endif  // SRC_FS_DEVICE_H_
