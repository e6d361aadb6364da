#include <gtest/gtest.h>

#include <thread>

#include "src/base/clock.h"
#include "src/lock/lock_core.h"
#include "src/lock/slot_table.h"

namespace frangipani {
namespace {

LockCore::RevokeFn NoRevoke() {
  return [](uint32_t, LockId, LockMode, LockRange) { return OkStatus(); };
}
LockCore::DeadHolderFn NoDead() {
  return [](uint32_t) {};
}

// Whole-lock request helper: the pre-extent API surface most tests use.
Status Req(LockCore& core, uint32_t slot, LockId lock, LockMode mode,
           const LockCore::RevokeFn& revoke, const LockCore::DeadHolderFn& dead) {
  LockRange granted;
  Status st = core.Request(slot, lock, mode, LockRange{}, revoke, dead, &granted);
  if (st.ok()) {
    core.Ack(slot, lock);
  }
  return st;
}

TEST(LockCoreTest, SharedLocksCoexist) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 2, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kShared);
  EXPECT_EQ(core.HeldMode(2, 100), LockMode::kShared);
  EXPECT_EQ(core.lock_count(), 1u);
}

TEST(LockCoreTest, ExclusiveRevokesSharers) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 2, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  std::vector<uint32_t> revoked;
  auto revoke = [&](uint32_t holder, LockId lock, LockMode new_mode, LockRange) {
    EXPECT_EQ(lock, 100u);
    EXPECT_EQ(new_mode, LockMode::kNone);
    revoked.push_back(holder);
    return OkStatus();
  };
  ASSERT_TRUE(Req(core, 3, 100, LockMode::kExclusive, revoke, NoDead()).ok());
  EXPECT_EQ(revoked.size(), 2u);
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kNone);
  EXPECT_EQ(core.HeldMode(3, 100), LockMode::kExclusive);
}

TEST(LockCoreTest, ReaderDowngradesWriter) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  bool downgraded = false;
  auto revoke = [&](uint32_t holder, LockId, LockMode new_mode, LockRange) {
    EXPECT_EQ(holder, 1u);
    EXPECT_EQ(new_mode, LockMode::kShared);
    downgraded = true;
    return OkStatus();
  };
  ASSERT_TRUE(Req(core, 2, 100, LockMode::kShared, revoke, NoDead()).ok());
  EXPECT_TRUE(downgraded);
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kShared);
  EXPECT_EQ(core.HeldMode(2, 100), LockMode::kShared);
}

TEST(LockCoreTest, ReRequestIsIdempotent) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kExclusive);
}

TEST(LockCoreTest, UpgradeRevokesOtherSharers) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 2, 100, LockMode::kShared, NoRevoke(), NoDead()).ok());
  std::vector<uint32_t> revoked;
  auto revoke = [&](uint32_t holder, LockId, LockMode, LockRange) {
    revoked.push_back(holder);
    return OkStatus();
  };
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, revoke, NoDead()).ok());
  EXPECT_EQ(revoked, std::vector<uint32_t>{2});
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kExclusive);
}

TEST(LockCoreTest, ReleaseAndDowngrade) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  core.Release(1, 100, LockMode::kShared);
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kShared);
  core.Release(1, 100, LockMode::kNone);
  EXPECT_EQ(core.HeldMode(1, 100), LockMode::kNone);
}

TEST(LockCoreTest, ReleaseAllDropsEverything) {
  LockCore core;
  for (LockId l = 1; l <= 5; ++l) {
    ASSERT_TRUE(Req(core, 7, l, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  }
  EXPECT_EQ(core.lock_count(), 5u);
  core.ReleaseAll(7);
  EXPECT_EQ(core.lock_count(), 0u);
}

TEST(LockCoreTest, DeadHolderCallbackOnFailedRevoke) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  int dead_calls = 0;
  auto revoke = [&](uint32_t, LockId, LockMode, LockRange) { return Unavailable("gone"); };
  auto dead = [&](uint32_t holder) {
    EXPECT_EQ(holder, 1u);
    if (++dead_calls >= 1) {
      core.ReleaseAll(1);  // the "recovery" resolves the conflict
    }
  };
  ASSERT_TRUE(Req(core, 2, 100, LockMode::kExclusive, revoke, dead).ok());
  EXPECT_GE(dead_calls, 1);
  EXPECT_EQ(core.HeldMode(2, 100), LockMode::kExclusive);
}

TEST(LockCoreTest, BlockedRequesterWakesOnRelease) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 100, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  std::atomic<bool> granted{false};
  // Holder 1's revoke "waits" (simulating a busy user) and then complies.
  std::thread waiter([&] {
    auto slow_revoke = [&](uint32_t, LockId, LockMode, LockRange) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return OkStatus();
    };
    ASSERT_TRUE(Req(core, 2, 100, LockMode::kExclusive, slow_revoke, NoDead()).ok());
    granted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(granted.load());
  waiter.join();
  EXPECT_TRUE(granted.load());
}

TEST(LockCoreTest, DumpAndInstallRoundTrip) {
  LockCore core;
  ASSERT_TRUE(Req(core, 1, 10, LockMode::kShared, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 2, 10, LockMode::kShared, NoRevoke(), NoDead()).ok());
  ASSERT_TRUE(Req(core, 3, 20, LockMode::kExclusive, NoRevoke(), NoDead()).ok());
  auto dump = core.Dump();
  LockCore fresh;
  for (const auto& e : dump) {
    fresh.Install(e.slot, e.lock, e.mode, e.range);
  }
  EXPECT_EQ(fresh.HeldMode(1, 10), LockMode::kShared);
  EXPECT_EQ(fresh.HeldMode(2, 10), LockMode::kShared);
  EXPECT_EQ(fresh.HeldMode(3, 20), LockMode::kExclusive);
}

// ---- SlotTable ----

TEST(SlotTableTest, AssignsLowestFreeSlot) {
  ManualClock clock;
  SlotTable table(&clock, Duration(30'000'000));
  auto s0 = table.Open("fs", 5);
  auto s1 = table.Open("fs", 6);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s0, 0u);
  EXPECT_EQ(*s1, 1u);
  table.Free(*s0);
  auto s2 = table.Open("fs", 7);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, 0u);  // reuses the freed slot
}

TEST(SlotTableTest, LeaseExpiry) {
  ManualClock clock;
  SlotTable table(&clock, Duration(1'000'000));  // 1 s lease
  auto s = table.Open("fs", 5);
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE(table.Expired(*s));
  EXPECT_TRUE(table.Renew(*s));
  clock.Advance(Duration(900'000));
  EXPECT_TRUE(table.Renew(*s));  // renewed in time
  clock.Advance(Duration(1'100'000));
  EXPECT_TRUE(table.Expired(*s));
  EXPECT_FALSE(table.Renew(*s));  // too late: considered failed
  EXPECT_EQ(table.ExpiredSlots(), std::vector<uint32_t>{*s});
}

TEST(SlotTableTest, EncodeDecode) {
  ManualClock clock;
  SlotTable table(&clock, Duration(30'000'000));
  ASSERT_TRUE(table.Open("fs", 5).ok());
  ASSERT_TRUE(table.Open("fs", 6).ok());
  LockStateBlob blob;
  blob.slots = table.Snapshot();
  StatusOr<LockStateBlob> decoded = LockStateBlob::Decode(blob.Encode());
  ASSERT_TRUE(decoded.ok());
  SlotTable copy(&clock, Duration(30'000'000));
  copy.Restore(decoded->slots);
  EXPECT_TRUE(copy.IsOpen(0));
  EXPECT_TRUE(copy.IsOpen(1));
  EXPECT_FALSE(copy.IsOpen(2));
  EXPECT_EQ(copy.ClerkOf(0), 5u);
  EXPECT_EQ(copy.ClerkOf(1), 6u);
}

TEST(SlotTableTest, ClaimedSlotCannotRenew) {
  ManualClock clock;
  SlotTable table(&clock, Duration(1'000'000));
  auto s = table.Open("fs", 5);
  ASSERT_TRUE(s.ok());
  table.Claim(*s, 9);
  table.Claim(*s, 10);  // first claim wins
  EXPECT_EQ(table.ClaimOf(*s), 9u);
  EXPECT_FALSE(table.Renew(*s));
  table.Free(*s);
  EXPECT_EQ(table.ClaimOf(*s), kInvalidNode);
  EXPECT_TRUE(table.WaitFreed(*s, Duration(0)));
}

// ---- wire codec ----

TEST(LockCodecTest, RoundTripsKeepTheByteLayout) {
  LockModeRequest req{3, 77, LockMode::kShared, {4096, 8192}};
  Bytes raw = req.Encode();
  ASSERT_EQ(raw.size(), 4u + 8 + 1 + 8 + 8);  // slot, lock, mode, start, end
  StatusOr<LockModeRequest> back = LockModeRequest::Decode(raw);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->slot, 3u);
  EXPECT_EQ(back->lock, 77u);
  EXPECT_EQ(back->mode, LockMode::kShared);
  EXPECT_TRUE(back->range == MakeRange(4096, 8192));

  ClerkHeldReply held;
  held.slot = 2;
  held.holds.push_back({10, 2, LockMode::kExclusive, FullRange()});
  held.holds.push_back({11, 2, LockMode::kShared, MakeRange(0, 100)});
  EXPECT_EQ(held.Encode().size(), 4u + 4 + 2 * (8 + 1 + 8 + 8));
  StatusOr<ClerkHeldReply> held_back = ClerkHeldReply::Decode(held.Encode());
  ASSERT_TRUE(held_back.ok());
  ASSERT_EQ(held_back->holds.size(), 2u);
  EXPECT_EQ(held_back->holds[1].slot, 2u);
  EXPECT_EQ(held_back->holds[1].mode, LockMode::kShared);

  LockAssignment map;
  map.servers = {4, 5};
  map.groups.fill(4);
  map.groups[7] = 5;
  StatusOr<LockAssignment> map_back = LockAssignment::Decode(map.Encode());
  ASSERT_TRUE(map_back.ok());
  EXPECT_EQ(map_back->servers, map.servers);
  EXPECT_EQ(map_back->groups, map.groups);
}

TEST(LockCodecTest, RejectsTruncatedBodiesAndBadModes) {
  Bytes request = LockModeRequest{0, 5, LockMode::kExclusive, FullRange()}.Encode();
  for (size_t n = 0; n < request.size(); ++n) {
    Bytes cut(request.begin(), request.begin() + n);
    EXPECT_EQ(LockModeRequest::Decode(cut).status().code(), StatusCode::kInvalidArgument) << n;
  }
  Bytes bad_mode = request;
  bad_mode[12] = 3;  // the mode byte, above kExclusive
  EXPECT_EQ(LockModeRequest::Decode(bad_mode).status().code(), StatusCode::kInvalidArgument);
  Bytes revoke = ClerkRevokeRequest{5, LockMode::kNone, FullRange()}.Encode();
  revoke[8] = 0xFF;
  EXPECT_EQ(ClerkRevokeRequest::Decode(revoke).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LockSlotRequest::Decode(Bytes{}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LockAckRequest::Decode(Bytes(11, 0)).status().code(), StatusCode::kInvalidArgument);
  LockAssignment map;
  Bytes short_map = map.Encode();
  short_map.pop_back();
  EXPECT_EQ(LockAssignment::Decode(short_map).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace frangipani
