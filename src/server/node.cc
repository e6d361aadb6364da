#include "src/server/node.h"

#include "src/base/logging.h"

namespace frangipani {

FrangipaniNode::FrangipaniNode(Network* net, NodeId node, std::vector<NodeId> petal_servers,
                               std::vector<NodeId> lock_servers, VdiskId vdisk, Clock* clock,
                               NodeOptions options)
    : net_(net), node_(node), vdisk_(vdisk), clock_(clock), options_(options) {
  options_.fs.node_id = node_;  // tag this node's spans in the flight recorder
  petal_ = std::make_unique<PetalClient>(net_, node_, std::move(petal_servers));
  device_ = std::make_unique<PetalDevice>(petal_.get(), vdisk_);

  LockClerk::Callbacks callbacks;
  callbacks.on_revoke = [this](LockId lock, LockMode new_mode, LockRange range) {
    if (fs_) {
      fs_->OnLockRevoked(lock, new_mode, range);
    }
  };
  callbacks.on_recover = [this](uint32_t dead_slot) -> Status {
    if (!fs_) {
      return FailedPrecondition("file system not mounted");
    }
    return fs_->RecoverSlot(dead_slot);
  };
  callbacks.on_lease_lost = [this] {
    if (fs_) {
      fs_->OnLeaseLost();
    }
  };
  clerk_ = std::make_unique<LockClerk>(net_, node_, std::move(lock_servers), clock_,
                                       std::move(callbacks));
  provider_ = std::make_unique<ClerkLockProvider>(clerk_.get());
}

FrangipaniNode::~FrangipaniNode() {
  StopDemons();
  if (fs_ && fs_->mounted() && !crashed_) {
    (void)Unmount();
  }
}

Status FrangipaniNode::Mount() {
  RETURN_IF_ERROR(petal_->RefreshMap());
  RETURN_IF_ERROR(clerk_->Open("fs"));
  fs_ = std::make_unique<FrangipaniFs>(device_.get(), provider_.get(), clock_, options_.fs);
  Status st = fs_->Mount();
  if (!st.ok()) {
    clerk_->Close();
    fs_.reset();
    return st;
  }
  lease_duration_ = clerk_->lease_duration();
  if (options_.start_demons) {
    StartDemons();
  }
  FLOG(INFO) << "node " << node_ << ": mounted as log slot " << clerk_->slot();
  return OkStatus();
}

Status FrangipaniNode::Unmount() {
  StopDemons();
  Status st = OkStatus();
  if (fs_) {
    st = fs_->Unmount();
    // Return all locks cleanly so no recovery is needed (§7: removing a
    // server is "even easier"; this is the polite variant).
    clerk_->DropIdle(Duration(0));
    clerk_->Close();
  }
  return st;
}

void FrangipaniNode::Crash() {
  crashed_ = true;
  StopDemons();
}

void FrangipaniNode::StartDemons() {
  Duration renew = options_.renew_period;
  if (renew.count() == 0) {
    renew = lease_duration_ / 3;
  }
  // Each demon runs on its own thread; tag their log lines with this node.
  std::string tag = "n" + std::to_string(node_);
  // The lease was granted at clerk_->Open, before the file system mounted.
  // Renewing at once times the first period from a renewal, not from the
  // end of however long the mount took.
  renew_task_ = std::make_unique<PeriodicTask>(
      renew,
      [this, tag] {
        SetLogNodeTag(tag);
        clerk_->RenewTick();
      },
      /*run_first=*/true);
  log_flush_task_ = std::make_unique<PeriodicTask>(options_.log_flush_period, [this, tag] {
    SetLogNodeTag(tag);
    if (fs_) {
      fs_->ReportSyncError("log flush demon", fs_->FlushLog());
    }
  });
  sync_task_ = std::make_unique<PeriodicTask>(options_.sync_period, [this, tag] {
    SetLogNodeTag(tag);
    if (fs_) {
      fs_->ReportSyncError("sync demon", fs_->SyncAll());
    }
  });
  constexpr Duration kIdleLockDrop{3600'000'000};  // paper: locks idle for 1 hour
  idle_drop_task_ = std::make_unique<PeriodicTask>(kIdleLockDrop / 4, [this, tag] {
    SetLogNodeTag(tag);
    clerk_->DropIdle(kIdleLockDrop);
  });
}

void FrangipaniNode::StopDemons() {
  renew_task_.reset();
  log_flush_task_.reset();
  sync_task_.reset();
  idle_drop_task_.reset();
}

}  // namespace frangipani
