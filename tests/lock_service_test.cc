// Clerk + lock-server tests over the simulated network. The shared cases run
// against each of the three lock services of §6 (one LockServer core with
// the centralized, primary/backup or distributed policy); the cases only
// one variant has (takeover, lock groups, rebalance, failure detector)
// follow.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>

#include "src/base/thread_pool.h"
#include "src/lock/clerk.h"
#include "src/lock/policies.h"
#include "src/petal/petal_server.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

constexpr Duration kLease{500'000};  // 0.5 s

struct TestClerk {
  NodeId node = kInvalidNode;
  std::unique_ptr<LockClerk> clerk;
  // Declared after clerk_ so it stops before the clerk is destroyed.
  std::unique_ptr<PeriodicTask> renew;
  std::mutex mu;
  std::vector<std::pair<LockId, LockMode>> revokes;
  std::vector<uint32_t> recovered;
  std::atomic<bool> lease_lost{false};

  void StartRenewals() {
    renew = std::make_unique<PeriodicTask>(Duration(100'000),
                                           [this] { clerk->RenewTick(); });
  }
};

// One lock service of a given variant, plus the Petal substrate the
// primary/backup variant keeps its state on.
class LockServiceHarness : public ::testing::Test {
 protected:
  void Build(LockServiceKind kind, int dist_servers = 3) {
    kind_ = kind;
    int n = 1;
    if (kind == LockServiceKind::kPrimaryBackup) {
      n = 2;
      BuildPetal();
    } else if (kind == LockServiceKind::kDistributed) {
      n = dist_servers;
    }
    for (int i = 0; i < n; ++i) {
      server_nodes_.push_back(net_.AddNode("lockd" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      if (kind == LockServiceKind::kPrimaryBackup) {
        petal_clients_.push_back(
            std::make_unique<PetalClient>(&net_, server_nodes_[i], petal_nodes_));
        ASSERT_TRUE(petal_clients_.back()->RefreshMap().ok());
      }
      paxos_states_.push_back(std::make_unique<PaxosDurableState>());
    }
    if (kind == LockServiceKind::kPrimaryBackup) {
      auto vd = petal_clients_[0]->CreateVdisk();
      ASSERT_TRUE(vd.ok());
      state_vdisk_ = *vd;
    }
    dist_.resize(n);
    pb_.resize(n);
    for (int i = 0; i < n; ++i) {
      servers_.push_back(MakeServer(i));
    }
  }

  std::unique_ptr<LockServer> MakeServer(int i) {
    std::unique_ptr<LockServerPolicy> policy;
    switch (kind_) {
      case LockServiceKind::kCentralized:
        policy = std::make_unique<CentralizedPolicy>();
        break;
      case LockServiceKind::kPrimaryBackup: {
        auto pb = std::make_unique<PrimaryBackupPolicy>(server_nodes_[1 - i], i == 0,
                                                        petal_clients_[i].get(), state_vdisk_);
        pb_[i] = pb.get();
        policy = std::move(pb);
        break;
      }
      case LockServiceKind::kDistributed: {
        auto dist = std::make_unique<DistributedPolicy>(server_nodes_, server_nodes_,
                                                        paxos_states_[i].get());
        dist_[i] = dist.get();
        policy = std::move(dist);
        break;
      }
    }
    return std::make_unique<LockServer>(&net_, server_nodes_[i], SystemClock::Get(), kLease,
                                        std::move(policy));
  }

  void BuildPetal() {
    for (int i = 0; i < 3; ++i) {
      petal_nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
    }
    for (int i = 0; i < 3; ++i) {
      petal_states_.push_back(std::make_unique<PetalServerDurable>());
      PetalServerOptions opts;
      opts.num_disks = 1;
      opts.disk.timing_enabled = false;
      petal_servers_.push_back(std::make_unique<PetalServer>(
          &net_, petal_nodes_[i], petal_nodes_, petal_nodes_, petal_states_.back().get(), opts,
          SystemClock::Get()));
    }
  }

  TestClerk* NewClerk() {
    clerks_.emplace_back();
    TestClerk* tc = &clerks_.back();
    tc->node = net_.AddNode("clerk" + std::to_string(clerks_.size()));
    LockClerk::Callbacks cb;
    cb.on_revoke = [tc](LockId lock, LockMode mode, LockRange) {
      std::lock_guard<std::mutex> guard(tc->mu);
      tc->revokes.emplace_back(lock, mode);
    };
    cb.on_recover = [tc](uint32_t slot) -> Status {
      std::lock_guard<std::mutex> guard(tc->mu);
      tc->recovered.push_back(slot);
      return OkStatus();
    };
    cb.on_lease_lost = [tc] { tc->lease_lost.store(true); };
    tc->clerk = std::make_unique<LockClerk>(&net_, tc->node, server_nodes_, SystemClock::Get(),
                                            std::move(cb));
    tc->StartRenewals();
    return tc;
  }

  // The server holding `lock`'s state (the primary for primary/backup).
  LockServer* ServerFor(LockId lock) {
    NodeId owner = servers_[0]->Assignment().groups[LockGroupOf(lock)];
    for (auto& s : servers_) {
      if (s->node() == owner) {
        return s.get();
      }
    }
    return nullptr;
  }

  DistributedPolicy* Dist(size_t i) { return dist_[i]; }

  void CheckLeases() {
    for (auto& s : servers_) {
      if (net_.IsNodeUp(s->node())) {
        s->CheckLeases();
      }
    }
  }

  LockServiceKind kind_ = LockServiceKind::kCentralized;
  Network net_;
  std::vector<NodeId> petal_nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> petal_states_;
  std::vector<std::unique_ptr<PetalServer>> petal_servers_;
  std::vector<std::unique_ptr<PetalClient>> petal_clients_;
  VdiskId state_vdisk_ = kInvalidVdisk;
  std::vector<NodeId> server_nodes_;
  std::vector<std::unique_ptr<PaxosDurableState>> paxos_states_;
  std::vector<std::unique_ptr<LockServer>> servers_;
  // Each server's policy when it is of that variant (owned by servers_).
  std::vector<DistributedPolicy*> dist_;
  std::vector<PrimaryBackupPolicy*> pb_;
  std::deque<TestClerk> clerks_;
};

// ---- shared: every variant ----

class LockServiceTest : public LockServiceHarness,
                        public ::testing::WithParamInterface<LockServiceKind> {
 protected:
  void SetUp() override { Build(GetParam()); }
};

TEST_P(LockServiceTest, OpenAssignsSlots) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  EXPECT_EQ(a->clerk->slot(), 0u);
  EXPECT_EQ(b->clerk->slot(), 1u);
}

TEST_P(LockServiceTest, SharedLocksNoRevoke) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kShared).ok());
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kShared).ok());
  a->clerk->Release(100);
  b->clerk->Release(100);
  EXPECT_TRUE(a->revokes.empty());
  EXPECT_TRUE(b->revokes.empty());
}

TEST_P(LockServiceTest, StickyLocksServedFromCache) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(7, LockMode::kExclusive).ok());
  a->clerk->Release(7);
  EXPECT_EQ(a->clerk->CachedMode(7), LockMode::kExclusive);
  // Server sees it still held.
  EXPECT_EQ(ServerFor(7)->HeldMode(a->clerk->slot(), 7), LockMode::kExclusive);
  // Re-acquire without traffic: it must succeed even with the server down.
  NodeId owner = ServerFor(7)->node();
  net_.SetNodeUp(owner, false);
  EXPECT_TRUE(a->clerk->Acquire(7, LockMode::kExclusive).ok());
  a->clerk->Release(7);
  net_.SetNodeUp(owner, true);
}

TEST_P(LockServiceTest, ConflictTriggersRevokeAndFlush) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);  // cached, still held
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  {
    std::lock_guard<std::mutex> guard(a->mu);
    ASSERT_EQ(a->revokes.size(), 1u);
    EXPECT_EQ(a->revokes[0].first, 100u);
    EXPECT_EQ(a->revokes[0].second, LockMode::kNone);
  }
  EXPECT_EQ(a->clerk->CachedMode(100), LockMode::kNone);
  EXPECT_EQ(ServerFor(100)->HeldMode(b->clerk->slot(), 100), LockMode::kExclusive);
}

TEST_P(LockServiceTest, WriterDowngradedToSharedForReader) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kShared).ok());
  b->clerk->Release(100);
  {
    std::lock_guard<std::mutex> guard(a->mu);
    ASSERT_EQ(a->revokes.size(), 1u);
    EXPECT_EQ(a->revokes[0].second, LockMode::kShared);
  }
  EXPECT_EQ(a->clerk->CachedMode(100), LockMode::kShared);
}

TEST_P(LockServiceTest, RevokeWaitsForBusyUser) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  // a holds the lock busy; b's acquire must block until a releases.
  std::atomic<bool> b_granted{false};
  std::thread bt([&] {
    ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
    b_granted.store(true);
    b->clerk->Release(100);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(b_granted.load());
  a->clerk->Release(100);
  bt.join();
  EXPECT_TRUE(b_granted.load());
}

TEST_P(LockServiceTest, CrashedHolderRecoveredAfterLeaseExpiry) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  uint32_t a_slot = a->clerk->slot();
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  // a crashes (no clean release). Before its lease expires the sweep must
  // leave it alone.
  net_.SetNodeUp(a->node, false);
  CheckLeases();
  EXPECT_EQ(ServerFor(100)->HeldMode(a_slot, 100), LockMode::kExclusive);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  CheckLeases();
  {
    // b was asked, once, to run recovery for a's slot.
    std::lock_guard<std::mutex> guard(b->mu);
    ASSERT_EQ(b->recovered.size(), 1u);
    EXPECT_EQ(b->recovered[0], a_slot);
  }
  EXPECT_EQ(ServerFor(100)->HeldMode(a_slot, 100), LockMode::kNone);
  // The lock is free now: b gets it without anyone being asked.
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  std::lock_guard<std::mutex> guard(a->mu);
  EXPECT_TRUE(a->revokes.empty());
}

TEST_P(LockServiceTest, ConflictWithCrashedHolderWaitsForLeaseExpiry) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  uint32_t a_slot = a->clerk->slot();
  ASSERT_TRUE(a->clerk->Acquire(100, LockMode::kExclusive).ok());
  a->clerk->Release(100);
  net_.SetNodeUp(a->node, false);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(b->clerk->Acquire(100, LockMode::kExclusive).ok());
  b->clerk->Release(100);
  double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(waited, 0.2);  // could not be granted before expiry
  // b was asked, once, to run recovery for a's slot.
  std::lock_guard<std::mutex> guard(b->mu);
  ASSERT_EQ(b->recovered.size(), 1u);
  EXPECT_EQ(b->recovered[0], a_slot);
}

TEST_P(LockServiceTest, PartitionedClerkLosesLease) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(9, LockMode::kExclusive).ok());
  a->clerk->Release(9);
  net_.SetIsolated(a->node, true);
  // Renewals fail; after the lease duration passes the clerk poisons itself.
  for (int i = 0; i < 20 && !a->lease_lost.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    a->clerk->RenewTick();
  }
  EXPECT_TRUE(a->lease_lost.load());
  EXPECT_TRUE(a->clerk->poisoned());
  EXPECT_EQ(a->clerk->Acquire(10, LockMode::kShared).code(), StatusCode::kStaleLease);
}

TEST_P(LockServiceTest, ServerRestartRecoversStateFromClerks) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(5, LockMode::kExclusive).ok());
  a->clerk->Release(5);
  ASSERT_TRUE(b->clerk->Acquire(6, LockMode::kShared).ok());
  b->clerk->Release(6);
  // Every server "crashes" and restarts with no lock state (a standby must
  // not take over meanwhile, so renewals pause), then rebuilds from clerks.
  a->renew.reset();
  b->renew.reset();
  for (auto& s : servers_) {
    s.reset();
  }
  for (size_t i = 0; i < servers_.size(); ++i) {
    servers_[i] = MakeServer(static_cast<int>(i));
    EXPECT_EQ(servers_[i]->lock_count(), 0u);
  }
  std::vector<std::pair<uint32_t, NodeId>> clerks = {{a->clerk->slot(), a->node},
                                                     {b->clerk->slot(), b->node}};
  for (auto& s : servers_) {
    s->RecoverStateFromClerks(clerks);
  }
  a->StartRenewals();
  b->StartRenewals();
  EXPECT_EQ(ServerFor(5)->HeldMode(a->clerk->slot(), 5), LockMode::kExclusive);
  EXPECT_EQ(ServerFor(6)->HeldMode(b->clerk->slot(), 6), LockMode::kShared);
  // The rebuilt state is live: b's exclusive request revokes a.
  ASSERT_TRUE(b->clerk->Acquire(5, LockMode::kExclusive).ok());
  b->clerk->Release(5);
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  EXPECT_EQ(a->revokes[0].first, 5u);
}

TEST_P(LockServiceTest, MalformedMessagesAreRejected) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  uint32_t slot = a->clerk->slot();
  ASSERT_EQ(slot, 0u);
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  LockServer* server = ServerFor(42);
  NodeId prober = net_.AddNode("prober");
  auto call = [&](uint32_t method, const Bytes& body) {
    return net_.Call(prober, server->node(), "lockd", method, body).status().code();
  };
  Bytes request = LockModeRequest{slot, 42, LockMode::kShared, FullRange()}.Encode();
  Bytes bad_mode = request;
  bad_mode[12] = 3;  // above kExclusive
  Bytes truncated(request.begin(), request.end() - 1);
  // An empty close body must not read as "close slot 0".
  EXPECT_EQ(call(kLockClose, Bytes{}), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockRenew, Bytes{}), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockAck, Bytes(11, 0)), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockOpen, Bytes{1, 0}), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockRequest, bad_mode), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockRequest, truncated), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockRelease, bad_mode), StatusCode::kInvalidArgument);
  EXPECT_EQ(call(kLockRelease, truncated), StatusCode::kInvalidArgument);
  // Slot 0 and its lock are untouched.
  EXPECT_EQ(server->HeldMode(slot, 42), LockMode::kExclusive);
  EXPECT_TRUE(server->slots().IsOpen(slot));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LockServiceTest,
                         ::testing::Values(LockServiceKind::kCentralized,
                                           LockServiceKind::kPrimaryBackup,
                                           LockServiceKind::kDistributed),
                         [](const ::testing::TestParamInfo<LockServiceKind>& info) {
                           switch (info.param) {
                             case LockServiceKind::kCentralized:
                               return "Centralized";
                             case LockServiceKind::kPrimaryBackup:
                               return "PrimaryBackup";
                             case LockServiceKind::kDistributed:
                               return "Distributed";
                           }
                           return "Unknown";
                         });

// ---- distributed only ----

class DistLockTest : public LockServiceHarness {
 protected:
  void SetUp() override { Build(LockServiceKind::kDistributed); }
};

TEST_F(DistLockTest, GroupsPartitionedAcrossServers) {
  LockAssignment state = servers_[0]->Assignment();
  std::map<NodeId, int> counts;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    ASSERT_NE(state.groups[g], kInvalidNode);
    counts[state.groups[g]]++;
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [server, count] : counts) {
    EXPECT_GE(count, 33);
    EXPECT_LE(count, 34);
  }
}

TEST_F(DistLockTest, BasicAcquireReleaseAcrossServers) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  // Touch enough locks to hit all three servers' groups.
  for (LockId l = 1; l <= 50; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    a->clerk->Release(l);
  }
  EXPECT_EQ(a->clerk->cached_lock_count(), 50u);
}

TEST_F(DistLockTest, ConflictsResolvedAcrossClerks) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 20; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok());
    b->clerk->Release(l);
  }
  std::lock_guard<std::mutex> guard(a->mu);
  EXPECT_EQ(a->revokes.size(), 20u);
}

TEST_F(DistLockTest, ServerCrashGroupsReassignedAndStateRecoveredFromClerks) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 30; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
  }
  // Crash server 2 and remove it from the service.
  net_.SetNodeUp(server_nodes_[2], false);
  ASSERT_TRUE(Dist(0)->ProposeRemoveServer(server_nodes_[2]).ok());
  Dist(1)->paxos()->CatchUp();
  // All locks must still be usable; gaining servers warm from clerks.
  TestClerk* b = NewClerk();
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 30; ++l) {
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    b->clerk->Release(l);
  }
  // a must have been revoked for every one of them (state was recovered, so
  // the service knew a held them).
  std::lock_guard<std::mutex> guard(a->mu);
  EXPECT_EQ(a->revokes.size(), 30u);
}

TEST_F(DistLockTest, CrashedClerkSlotRecoveredOnce) {
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  uint32_t a_slot = a->clerk->slot();
  for (LockId l = 1; l <= 10; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kExclusive).ok());
    a->clerk->Release(l);
  }
  net_.SetNodeUp(a->node, false);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));  // lease expiry
  for (LockId l = 1; l <= 10; ++l) {
    ASSERT_TRUE(b->clerk->Acquire(l, LockMode::kExclusive).ok()) << l;
    b->clerk->Release(l);
  }
  std::lock_guard<std::mutex> guard(b->mu);
  ASSERT_GE(b->recovered.size(), 1u);
  for (uint32_t slot : b->recovered) {
    EXPECT_EQ(slot, a_slot);
  }
}

TEST_F(DistLockTest, FailureDetectorRemovesDeadServer) {
  net_.SetNodeUp(server_nodes_[2], false);
  for (int i = 0; i < 3; ++i) {
    Dist(0)->FailureDetectTick(3);
  }
  LockAssignment state = servers_[0]->Assignment();
  EXPECT_EQ(state.servers.size(), 2u);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    EXPECT_NE(state.groups[g], server_nodes_[2]);
  }
}

TEST(RebalanceTest, RebalanceMinimizesMovement) {
  LockAssignment state;
  state.servers = {1, 2, 3};
  state.groups.fill(kInvalidNode);
  RebalanceGroups(state);
  auto before = state.groups;
  // Removing one server must not move groups between survivors.
  state.servers = {1, 3};
  RebalanceGroups(state);
  int moved_between_survivors = 0;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    if (before[g] != 2 && state.groups[g] != before[g]) {
      ++moved_between_survivors;
    }
  }
  EXPECT_EQ(moved_between_survivors, 0);
}

// ---- primary/backup only ----

class PbLockTest : public LockServiceHarness {
 protected:
  void SetUp() override { Build(LockServiceKind::kPrimaryBackup); }

  PrimaryBackupPolicy* Pb(size_t i) { return pb_[i]; }
};

TEST_F(PbLockTest, BasicOperation) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  EXPECT_EQ(servers_[0]->lock_count(), 1u);
  EXPECT_FALSE(Pb(1)->active());
}

TEST_F(PbLockTest, BackupTakesOverWithPersistedState) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  // Primary dies; the clerk's next request fails over to the backup, which
  // loads the state from Petal and takes over.
  net_.SetNodeUp(server_nodes_[0], false);
  TestClerk* b = NewClerk();
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  EXPECT_TRUE(Pb(1)->active());
  // State survived: b's exclusive on 42 must revoke a.
  ASSERT_TRUE(b->clerk->Acquire(42, LockMode::kExclusive).ok());
  b->clerk->Release(42);
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  EXPECT_EQ(a->revokes[0].first, 42u);
}

// Forwards to the primary's lock server, but the primary dies as a clerk's
// kLockOpen reaches it: after the clerk fetched an assignment that names it,
// before the open is served.
class DiesOnOpen : public Service {
 public:
  DiesOnOpen(Network* net, NodeId node, Service* server)
      : net_(net), node_(node), server_(server) {}
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override {
    if (method == kLockOpen) {
      net_->SetNodeUp(node_, false);
      return Unavailable("primary crashed");
    }
    return server_->Handle(method, request, from);
  }

 private:
  Network* net_;
  NodeId node_;
  Service* server_;
};

// Open tries the server of the assignment its failed call refreshed: the
// refresh made the standby take over, and the clerk opens there.
TEST_F(PbLockTest, OpenFailsOverWhenThePrimaryDiesAfterTheAssignment) {
  DiesOnOpen dying(&net_, server_nodes_[0], servers_[0].get());
  net_.RegisterService(server_nodes_[0], LockServer::kServiceName, &dying);
  TestClerk* a = NewClerk();
  Status opened = a->clerk->Open("fs");
  net_.RegisterService(server_nodes_[0], LockServer::kServiceName, servers_[0].get());
  ASSERT_TRUE(opened.ok()) << opened;
  EXPECT_FALSE(net_.IsNodeUp(server_nodes_[0]));
  EXPECT_TRUE(Pb(1)->active());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
}

// Clerks renew only at the active server. Once the primary is down, an idle
// clerk's renewal reaches no server; the tick then refreshes the assignment,
// which makes the standby take over, and renews there. Nothing else talks to
// the lock service meanwhile.
TEST_F(PbLockTest, IdleClerkKeepsItsLeaseAcrossTakeover) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(42, LockMode::kExclusive).ok());
  a->clerk->Release(42);
  // The grant's ack goes out from the IO pool. Let it land at the primary:
  // an ack that failed would refresh the assignment itself.
  std::this_thread::sleep_for(kLease / 5);
  net_.SetNodeUp(server_nodes_[0], false);
  std::this_thread::sleep_for(kLease * 3);
  EXPECT_TRUE(Pb(1)->active());
  EXPECT_FALSE(a->lease_lost.load());
  EXPECT_TRUE(a->clerk->LeaseValidFor(Duration(0)));
  EXPECT_EQ(a->clerk->CachedMode(42), LockMode::kExclusive);
  // The standby holds a's lease as live too: it revokes 42 from a instead
  // of recovering a as a dead holder.
  TestClerk* b = NewClerk();
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Acquire(42, LockMode::kExclusive).ok());
  b->clerk->Release(42);
  {
    std::lock_guard<std::mutex> guard(b->mu);
    EXPECT_TRUE(b->recovered.empty());
  }
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  EXPECT_EQ(a->revokes[0].first, 42u);
}

}  // namespace
}  // namespace frangipani
