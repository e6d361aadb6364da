// Routing strategies mapping a lock to the server that serves it.
//  - StaticLockRouter: a fixed failover-ordered server list (centralized and
//    primary/backup implementations).
//  - DistLockRouter: the distributed implementation's group→server map,
//    fetched and refreshed from any reachable lock server.
#ifndef SRC_LOCK_ROUTER_H_
#define SRC_LOCK_ROUTER_H_

#include <mutex>
#include <vector>

#include "src/base/status.h"
#include "src/lock/types.h"
#include "src/net/network.h"

namespace frangipani {

class LockRouter {
 public:
  virtual ~LockRouter() = default;
  virtual StatusOr<NodeId> ServerForLock(LockId lock) = 0;
  virtual StatusOr<NodeId> AnyServer() = 0;
  virtual std::vector<NodeId> AllServers() = 0;
  // Called when a call to `server` failed; the router may fail over or
  // refresh its map.
  virtual void OnServerTrouble(NodeId server) {}
};

class StaticLockRouter : public LockRouter {
 public:
  explicit StaticLockRouter(std::vector<NodeId> servers) : servers_(std::move(servers)) {}

  StatusOr<NodeId> ServerForLock(LockId lock) override { return Preferred(); }
  StatusOr<NodeId> AnyServer() override { return Preferred(); }
  std::vector<NodeId> AllServers() override { return servers_; }

  void OnServerTrouble(NodeId server) override {
    std::lock_guard<std::mutex> guard(mu_);
    if (servers_[preferred_] == server) {
      preferred_ = (preferred_ + 1) % servers_.size();
    }
  }

 private:
  StatusOr<NodeId> Preferred() {
    std::lock_guard<std::mutex> guard(mu_);
    if (servers_.empty()) {
      return Unavailable("no lock servers configured");
    }
    return servers_[preferred_];
  }

  std::vector<NodeId> servers_;
  std::mutex mu_;
  size_t preferred_ = 0;
};

class DistLockRouter : public LockRouter {
 public:
  DistLockRouter(Network* net, NodeId self, std::vector<NodeId> bootstrap)
      : net_(net), self_(self), bootstrap_(std::move(bootstrap)) {}

  StatusOr<NodeId> ServerForLock(LockId lock) override;
  StatusOr<NodeId> AnyServer() override;
  std::vector<NodeId> AllServers() override;
  void OnServerTrouble(NodeId server) override;

  Status Refresh();

 private:
  Network* net_;
  NodeId self_;
  std::vector<NodeId> bootstrap_;

  std::mutex mu_;
  bool have_map_ = false;
  LockAssignment map_;  // active lock servers and group -> server
};

}  // namespace frangipani

#endif  // SRC_LOCK_ROUTER_H_
