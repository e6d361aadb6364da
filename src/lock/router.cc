#include "src/lock/router.h"

namespace frangipani {

Status DistLockRouter::Refresh() {
  for (NodeId server : bootstrap_) {
    StatusOr<Bytes> reply = net_->Call(self_, server, "lockd", kLockGetAssignment, Bytes{});
    if (!reply.ok()) {
      continue;
    }
    StatusOr<LockAssignment> map = LockAssignment::Decode(*reply);
    if (!map.ok()) {
      continue;
    }
    std::lock_guard<std::mutex> guard(mu_);
    map_ = std::move(map).value();
    have_map_ = true;
    return OkStatus();
  }
  return Unavailable("no lock server reachable for assignment refresh");
}

StatusOr<NodeId> DistLockRouter::ServerForLock(LockId lock) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (have_map_) {
      NodeId server = map_.groups[LockGroupOf(lock)];
      if (server != kInvalidNode) {
        return server;
      }
    }
  }
  RETURN_IF_ERROR(Refresh());
  std::lock_guard<std::mutex> guard(mu_);
  NodeId server = map_.groups[LockGroupOf(lock)];
  if (server == kInvalidNode) {
    return Unavailable("lock group unassigned");
  }
  return server;
}

StatusOr<NodeId> DistLockRouter::AnyServer() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (have_map_ && !map_.servers.empty()) {
      return map_.servers.front();
    }
  }
  RETURN_IF_ERROR(Refresh());
  std::lock_guard<std::mutex> guard(mu_);
  if (map_.servers.empty()) {
    return Unavailable("no active lock servers");
  }
  return map_.servers.front();
}

std::vector<NodeId> DistLockRouter::AllServers() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (have_map_) {
      return map_.servers;
    }
  }
  (void)Refresh();
  std::lock_guard<std::mutex> guard(mu_);
  return map_.servers;
}

void DistLockRouter::OnServerTrouble(NodeId server) { (void)Refresh(); }

}  // namespace frangipani
