// One Frangipani server machine: the file server module, the lock clerk,
// the Petal device driver (client), and the background demons (lease
// renewal, periodic log flush, the update demon that writes dirty blocks
// roughly every sync period, idle lock return).
#ifndef SRC_SERVER_NODE_H_
#define SRC_SERVER_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread_pool.h"
#include "src/fs/frangipani_fs.h"
#include "src/fs/lock_provider.h"
#include "src/lock/clerk.h"
#include "src/petal/petal_client.h"

namespace frangipani {

struct NodeOptions {
  FsOptions fs;
  Duration sync_period{1'000'000};       // update demon (paper: 30 s; scaled)
  Duration log_flush_period{200'000};    // periodic log write (§4)
  Duration renew_period{0};              // 0 = lease_duration / 3
  bool start_demons = true;
};

class FrangipaniNode {
 public:
  FrangipaniNode(Network* net, NodeId node, std::vector<NodeId> petal_servers,
                 std::vector<NodeId> lock_servers, VdiskId vdisk, Clock* clock,
                 NodeOptions options);
  ~FrangipaniNode();

  // Opens the cluster's one lock table and mounts the file system.
  Status Mount();
  Status Unmount();

  // Simulated process death: demons stop, nothing is flushed. The caller
  // marks the network node down; volatile state (cache, unflushed log tail)
  // is simply never used again.
  void Crash();

  FrangipaniFs* fs() { return fs_.get(); }
  LockClerk* clerk() { return clerk_.get(); }
  PetalClient* petal() { return petal_.get(); }
  NodeId node_id() const { return node_; }
  uint32_t slot() const { return clerk_ ? clerk_->slot() : kInvalidSlot; }

 private:
  void StartDemons();
  void StopDemons();

  Network* net_;
  NodeId node_;
  VdiskId vdisk_;
  Clock* clock_;
  NodeOptions options_;
  Duration lease_duration_{kDefaultLeaseDuration};

  std::unique_ptr<PetalClient> petal_;
  std::unique_ptr<PetalDevice> device_;
  std::unique_ptr<LockClerk> clerk_;
  std::unique_ptr<ClerkLockProvider> provider_;
  std::unique_ptr<FrangipaniFs> fs_;

  std::unique_ptr<PeriodicTask> renew_task_;
  std::unique_ptr<PeriodicTask> log_flush_task_;
  std::unique_ptr<PeriodicTask> sync_task_;
  std::unique_ptr<PeriodicTask> idle_drop_task_;
  bool crashed_ = false;
};

}  // namespace frangipani

#endif  // SRC_SERVER_NODE_H_
