// WAL group commit (leader/follower handoff, one gather rule, leader
// failure, failed writes) and the clerk's asynchronous grant ack on a
// write-shared file.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/fs/device.h"
#include "src/fs/fsck.h"
#include "src/fs/wal.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

obs::Counter* C(const char* name) { return obs::MetricsRegistry::Default()->GetCounter(name); }

// ---- WAL group commit ----

Geometry SmallLogGeometry() {
  Geometry g;
  g.log_bytes = 16 * 1024;
  return g;
}

LogRecord MakeRecord(const Geometry& g, uint32_t ino, uint64_t version, uint8_t fill,
                     size_t bytes = 32) {
  LogRecord rec;
  LogBlockUpdate u;
  u.addr = g.InodeAddr(ino);
  u.kind = BlockKind::kInode;
  u.version = version;
  LogBlockUpdate::Range r;
  r.off = 16;
  r.data = Bytes(bytes, fill);
  u.ranges.push_back(r);
  rec.updates.push_back(u);
  return rec;
}

// Counts writes, optionally delays them (so followers can pile up behind a
// leader mid-write), and optionally fails the next one (leader-failure
// injection).
class FlakyDevice : public BlockDevice {
 public:
  explicit FlakyDevice(BlockDevice* base) : base_(base) {}
  Status Read(uint64_t offset, uint64_t length, Bytes* out) override {
    return base_->Read(offset, length, out);
  }
  Status Write(uint64_t offset, const Bytes& data, int64_t lease_expiry_us) override {
    writes.fetch_add(1);
    if (write_delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(write_delay_ms));
    }
    if (fail_next.exchange(false)) {
      return IoError("injected write failure");
    }
    return base_->Write(offset, data, lease_expiry_us);
  }
  Status Decommit(uint64_t offset, uint64_t length, int64_t lease_expiry_us) override {
    return base_->Decommit(offset, length, lease_expiry_us);
  }
  std::atomic<int> writes{0};
  std::atomic<bool> fail_next{false};
  int write_delay_ms = 0;

 private:
  BlockDevice* base_;
};

TEST(GroupCommitTest, ConcurrentFlushersShareOneWrite) {
  LocalDevice local(1, PhysDiskParams{.timing_enabled = false});
  Geometry g = SmallLogGeometry();
  FlakyDevice device(&local);
  device.write_delay_ms = 30;  // leader stays mid-write while followers queue
  LogWriter wal(&device, g, 0, nullptr, nullptr);
  uint64_t batched_before = C("wal.group_commit_batched")->value();
  constexpr int kThreads = 4;
  std::vector<uint64_t> lsns;
  for (int t = 0; t < kThreads; ++t) {
    StatusOr<uint64_t> lsn = wal.Append(MakeRecord(g, static_cast<uint32_t>(t + 1), 1, 0xA0 + t));
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, OkStatus());
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = wal.FlushTo(lsns[t]); });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (const Status& st : results) {
    EXPECT_TRUE(st.ok()) << st;
  }
  EXPECT_EQ(wal.flushed_lsn(), static_cast<uint64_t>(kThreads));
  // The leader's batch covered every pre-appended record in one device write;
  // the other flushers never touched the device.
  EXPECT_EQ(device.writes.load(), 1);
  EXPECT_GT(C("wal.group_commit_batched")->value(), batched_before);
  auto applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, static_cast<uint64_t>(kThreads));
}

TEST(GroupCommitTest, FlushToWritesEveryPendingRecord) {
  LocalDevice local(1, PhysDiskParams{.timing_enabled = false});
  Geometry g = SmallLogGeometry();
  FlakyDevice device(&local);
  LogWriter wal(&device, g, 0, nullptr, nullptr);
  StatusOr<uint64_t> l1_or = wal.Append(MakeRecord(g, 1, 1, 0xAA));
  ASSERT_TRUE(l1_or.ok());
  uint64_t l1 = *l1_or;
  StatusOr<uint64_t> l2_or = wal.Append(MakeRecord(g, 2, 1, 0xBB));
  ASSERT_TRUE(l2_or.ok());
  ASSERT_TRUE(wal.FlushTo(l1).ok());
  // The leader writes everything appended before it gathered: l2 too.
  EXPECT_EQ(wal.flushed_lsn(), *l2_or);
  EXPECT_EQ(device.writes.load(), 1);
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_EQ(device.writes.load(), 1) << "nothing was left pending";
  auto applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
}

TEST(GroupCommitTest, RecordAppendedMidWriteWaitsForTheNextLeader) {
  LocalDevice local(1, PhysDiskParams{.timing_enabled = false});
  Geometry g = SmallLogGeometry();
  FlakyDevice device(&local);
  device.write_delay_ms = 50;  // the leader's write stays in flight
  LogWriter wal(&device, g, 0, nullptr, nullptr);
  StatusOr<uint64_t> l1_or = wal.Append(MakeRecord(g, 1, 1, 0xAA));
  ASSERT_TRUE(l1_or.ok());
  Status leader_result = OkStatus();
  std::thread leader([&] { leader_result = wal.FlushTo(*l1_or); });
  // The device counts a write when it starts, after the leader gathered.
  while (device.writes.load() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  StatusOr<uint64_t> l2_or = wal.Append(MakeRecord(g, 2, 1, 0xBB));
  ASSERT_TRUE(l2_or.ok());
  // A follower of the in-flight write, which its record missed: it returns
  // only once a second write, its own as the next leader, has made it durable.
  ASSERT_TRUE(wal.FlushTo(*l2_or).ok());
  EXPECT_EQ(device.writes.load(), 2);
  EXPECT_EQ(wal.flushed_lsn(), *l2_or);
  auto applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  leader.join();
  EXPECT_TRUE(leader_result.ok()) << leader_result;
}

TEST(GroupCommitTest, LeaderFailureFallsBackToFollowerSelfFlush) {
  LocalDevice local(1, PhysDiskParams{.timing_enabled = false});
  Geometry g = SmallLogGeometry();
  FlakyDevice device(&local);
  LogWriter wal(&device, g, 0, nullptr, nullptr);

  StatusOr<uint64_t> l1_or = wal.Append(MakeRecord(g, 1, 1, 0xAA));
  ASSERT_TRUE(l1_or.ok());
  uint64_t l1 = *l1_or;
  device.fail_next.store(true);
  Status leader_result = OkStatus();
  std::thread leader([&] { leader_result = wal.FlushTo(l1); });
  // Queue behind the leader; give it time to take ownership first.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  StatusOr<uint64_t> l2_or = wal.Append(MakeRecord(g, 2, 1, 0xBB));
  ASSERT_TRUE(l2_or.ok());
  uint64_t l2 = *l2_or;
  Status follower_result = wal.FlushTo(l2);
  leader.join();

  // The injected failure surfaced at exactly one caller; the other retried
  // as leader and flushed everything (either ordering is possible when the
  // threads race for ownership).
  EXPECT_NE(leader_result.ok(), follower_result.ok());
  EXPECT_EQ(wal.flushed_lsn(), 2u) << "surviving flusher must cover both records";
  auto applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  ASSERT_TRUE(wal.FlushAll().ok());  // nothing left pending
}

TEST(GroupCommitTest, FailedWritesLeaveNoTrace) {
  LocalDevice local(1, PhysDiskParams{.timing_enabled = false});
  Geometry g = SmallLogGeometry();  // 32 sectors
  FlakyDevice device(&local);
  LogWriter wal(&device, g, 0, nullptr, nullptr);
  // 24 records of about 450 B reserve a sector each, three quarters of the
  // log: a failed write that kept the sectors it claimed would leave a
  // retry of the same records no room.
  constexpr uint32_t kRecords = 24;
  size_t stream_bytes = 0;
  for (uint32_t i = 0; i < kRecords; ++i) {
    LogRecord rec = MakeRecord(g, i + 1, 1, 0xC0, 400);
    stream_bytes += rec.EncodedSize();
    ASSERT_TRUE(wal.Append(std::move(rec)).ok());
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    device.fail_next.store(true);
    EXPECT_FALSE(wal.FlushAll().ok());
    EXPECT_EQ(wal.sectors_written(), 0u) << "attempt " << attempt;
    EXPECT_EQ(wal.flushed_lsn(), 0u);
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  EXPECT_EQ(wal.flushed_lsn(), kRecords);
  EXPECT_EQ(wal.sectors_written(), (stream_bytes + kLogSectorPayload - 1) / kLogSectorPayload);
  auto applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, kRecords);

  // The log wraps over the records of the successful write: they are the
  // only ones the writer tracks, so their space is reclaimed and reused.
  for (uint32_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(wal.Append(MakeRecord(g, i + 1, 2, 0xD0, 400)).ok());
  }
  ASSERT_TRUE(wal.FlushAll().ok());
  applied = ReplayLog(&local, g, 0, 0);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, kRecords) << "every version-2 record replays";
}

// ---- clerk grant acks ----

TEST(ClerkAckTest, GrantAcksRenewTheLeaseAndLetRevokesThrough) {
  ClusterOptions copts;
  copts.petal_servers = 3;
  copts.disks_per_petal = 1;
  copts.lock_kind = LockServiceKind::kCentralized;
  copts.lock_servers = 1;
  copts.flight_recorder = false;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());

  uint64_t implicit_before = C("lockd.implicit_renewals")->value();
  uint64_t remote_before = C("lock.acquire.remote")->value();
  uint64_t ack_errors_before = C("lock.ack_errors")->value();
  uint64_t revokes_before = C("lock.revoke.count")->value();

  // Write-share one file: every lap moves the lock between the nodes, so
  // each grant's ack must land before the peer's revoke can go through.
  FrangipaniFs* fs0 = cluster.fs(0);
  FrangipaniFs* fs1 = cluster.fs(1);
  auto ino0 = fs0->Create("/shared");
  ASSERT_TRUE(ino0.ok()) << ino0.status();
  auto ino1 = fs1->Lookup("/shared");
  ASSERT_TRUE(ino1.ok()) << ino1.status();
  Bytes data(512, 0x5A);
  for (int lap = 0; lap < 3; ++lap) {
    ASSERT_TRUE(fs0->Write(*ino0, lap * 512, data).ok());
    ASSERT_TRUE(fs1->Write(*ino1, (lap + 16) * 512, data).ok());
  }
  // Node 0 reads node 1's last write: the revoke of node 1's grant went
  // through, which the server allows only once that grant was acked.
  Bytes back;
  auto n = fs0->Read(*ino0, 18 * 512, data.size(), &back);
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(back, data);
  EXPECT_GT(C("lock.revoke.count")->value(), revokes_before);
  // Every request and every ack restamps the sender's lease at the server,
  // so each remote acquire yields two implicit renewals once its ack, sent
  // from the IO pool, has landed.
  uint64_t remote = C("lock.acquire.remote")->value() - remote_before;
  auto implicit = [&] { return C("lockd.implicit_renewals")->value() - implicit_before; };
  for (int i = 0; i < 200 && implicit() < 2 * remote; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(remote, 0u);
  EXPECT_GE(implicit(), 2 * remote);
  EXPECT_EQ(C("lock.ack_errors")->value(), ack_errors_before);
  ASSERT_TRUE(fs0->SyncAll().ok());
  ASSERT_TRUE(fs1->SyncAll().ok());
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  FsckReport report = RunFsck(&device, cluster.geometry());
  EXPECT_TRUE(report.ok) << report.Summary();
}

}  // namespace
}  // namespace frangipani
