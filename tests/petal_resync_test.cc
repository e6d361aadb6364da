// Striped recovery (ResyncFromPeers / Rebalance): windowed parallel pulls
// converge under message drops and a mid-resync peer kill, plus regression
// coverage for the three recovery-path bugs fixed alongside the striping:
//  - a pull discarded as stale must not charge modeled disk time,
//  - total peer failure must leave the server NOT ready (degraded), and
//  - an ok push *transport* status is not replication: the local copy stays
//    unless a placed replica's decoded reply confirms holding >= our version.
#include <gtest/gtest.h>

#include <thread>

#include "src/obs/metrics.h"
#include "src/petal/petal_client.h"
#include "src/petal/petal_server.h"

namespace frangipani {
namespace {

class PetalResyncTest : public ::testing::Test {
 protected:
  void Build(int n, PetalServerOptions opts = {}, LinkParams link = {}) {
    net_ = std::make_unique<Network>(link);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(net_->AddNode("petal" + std::to_string(i)));
    }
    opts.num_disks = 2;
    opts.disk.timing_enabled = false;
    for (int i = 0; i < n; ++i) {
      states_.emplace_back(std::make_unique<PetalServerDurable>());
      servers_.push_back(std::make_unique<PetalServer>(net_.get(), nodes_[i], nodes_, nodes_,
                                                       states_.back().get(), opts,
                                                       SystemClock::Get()));
    }
    client_node_ = net_->AddNode("client");
    client_ = std::make_unique<PetalClient>(net_.get(), client_node_, nodes_);
    ASSERT_TRUE(client_->RefreshMap().ok());
  }

  Bytes Pattern(size_t n, uint8_t seed) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>((i * 37 + seed) & 0xFF);
    }
    return out;
  }

  uint64_t VersionOf(PetalServerDurable* state, const ChunkKey& key) {
    PetalStoreShard& shard = state->ShardFor(key.index);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto it = shard.chunks.find(key);
    return it == shard.chunks.end() ? 0 : shard.blobs[it->second].version;
  }

  Bytes DataOf(PetalServerDurable* state, const ChunkKey& key) {
    PetalStoreShard& shard = state->ShardFor(key.index);
    std::lock_guard<std::mutex> guard(shard.mu);
    auto it = shard.chunks.find(key);
    return it == shard.chunks.end() ? Bytes{} : shard.blobs[it->second].data;
  }

  uint64_t DiskBytesWritten(PetalServerDurable* state) {
    uint64_t n = 0;
    std::lock_guard<std::mutex> guard(state->disks_mu);
    for (const auto& disk : state->disks) {
      n += disk->bytes_written();
    }
    return n;
  }

  // Every chunk of `vd` placed on nodes_[idx] matches the freshest replica:
  // same version and bytes as the peer holding the highest version.
  void ExpectConverged(VdiskId vd, size_t idx, uint64_t total_chunks) {
    PetalGlobalMap map = servers_[idx]->MapSnapshot();
    for (uint64_t c = 0; c < total_chunks; ++c) {
      if (!PlaceChunk(map, c).Contains(nodes_[idx])) {
        continue;
      }
      ChunkKey key{vd, c};
      uint64_t best = 0;
      size_t best_peer = idx;
      for (size_t i = 0; i < states_.size(); ++i) {
        if (i != idx && VersionOf(states_[i].get(), key) > best) {
          best = VersionOf(states_[i].get(), key);
          best_peer = i;
        }
      }
      ASSERT_EQ(VersionOf(states_[idx].get(), key), best) << "chunk " << c;
      ASSERT_EQ(DataOf(states_[idx].get(), key), DataOf(states_[best_peer].get(), key))
          << "chunk " << c;
    }
  }

  std::unique_ptr<Network> net_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> states_;
  std::vector<std::unique_ptr<PetalServer>> servers_;
  NodeId client_node_ = kInvalidNode;
  std::unique_ptr<PetalClient> client_;
};

// A scriptable stand-in for a Petal peer, registered over a real server's
// node to simulate replies the real implementation would never send (ok
// transport but unconfirmable payloads).
class StubPetalService : public Service {
 public:
  std::function<StatusOr<Bytes>(uint32_t, const Bytes&)> handler;
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId) override {
    return handler(method, request);
  }
};

constexpr uint64_t kTestChunks = 48;

TEST_F(PetalResyncTest, StripedResyncConvergesUnderDrops) {
  PetalServerOptions opts;
  opts.resync_attempts = 6;  // ride out p=0.08 message drops
  opts.resync_backoff = Duration{300};
  Build(3, opts);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  for (uint64_t c = 0; c < kTestChunks; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 1)).ok());
  }
  net_->SetNodeUp(nodes_[0], false);
  for (uint64_t c = 0; c < kTestChunks; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 2)).ok());
  }
  net_->SetDropProbability(0.08);
  servers_[0]->SetReady(false);
  net_->SetNodeUp(nodes_[0], true);
  Status st = servers_[0]->ResyncFromPeers();
  net_->SetDropProbability(0);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(servers_[0]->ready());
  ExpectConverged(*vd, 0, kTestChunks);
  EXPECT_GT(obs::MetricsRegistry::Default()->GetCounter("petal.resync_bytes")->value(), 0u);
}

TEST_F(PetalResyncTest, MidResyncPeerKillConvergesAfterPeerReturns) {
  PetalServerOptions opts;
  opts.resync_attempts = 2;
  opts.resync_backoff = Duration{500};
  LinkParams link;
  link.latency = Duration{2000};  // slow the pulls so the kill lands mid-resync
  Build(3, opts, link);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  for (uint64_t c = 0; c < kTestChunks; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 1)).ok());
  }
  net_->SetNodeUp(nodes_[0], false);
  for (uint64_t c = 0; c < kTestChunks; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 2)).ok());
  }
  servers_[0]->SetReady(false);
  net_->SetNodeUp(nodes_[0], true);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    net_->SetNodeUp(nodes_[1], false);
  });
  Status st = servers_[0]->ResyncFromPeers();
  killer.join();
  // Whatever the kill timing, the resync returned; a degraded pass must not
  // have claimed readiness.
  EXPECT_EQ(st.ok(), servers_[0]->ready());
  // Once the killed peer returns, a second pass fully converges.
  net_->SetNodeUp(nodes_[1], true);
  Status st2 = servers_[0]->ResyncFromPeers();
  ASSERT_TRUE(st2.ok()) << st2;
  EXPECT_TRUE(servers_[0]->ready());
  ExpectConverged(*vd, 0, kTestChunks);
}

TEST_F(PetalResyncTest, StalePullChargesNoDiskTime) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  Bytes original = Pattern(kChunkSize, 1);
  ASSERT_TRUE(client_->Write(*vd, 0, original).ok());  // both replicas at v1
  ASSERT_EQ(VersionOf(states_[0].get(), {*vd, 0}), 1u);

  // The peer advertises version 7 for chunk 0 but serves version 1: the pull
  // happens, loses the version race at apply time, and must be free.
  StubPetalService stub;
  VdiskId vdisk = *vd;
  stub.handler = [&, vdisk](uint32_t method, const Bytes&) -> StatusOr<Bytes> {
    Encoder enc;
    if (method == PetalServer::kListChunksFor) {
      enc.PutU32(1);
      enc.PutU32(vdisk);
      enc.PutU64(0);
      enc.PutU64(7);
      return enc.Take();
    }
    if (method == PetalServer::kPullChunk) {
      enc.PutBool(true);
      enc.PutU64(1);
      enc.PutBytes(Bytes(kChunkSize, 0xEE));
      return enc.Take();
    }
    return InvalidArgument("unexpected method in stub");
  };
  net_->RegisterService(nodes_[1], PetalServer::kServiceName, &stub);

  uint64_t disk_before = DiskBytesWritten(states_[0].get());
  servers_[0]->SetReady(false);
  Status st = servers_[0]->ResyncFromPeers();
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(servers_[0]->ready());
  // No apply ran, so no modeled disk write may have been charged.
  EXPECT_EQ(DiskBytesWritten(states_[0].get()), disk_before);
  EXPECT_EQ(VersionOf(states_[0].get(), {*vd, 0}), 1u);
  EXPECT_EQ(DataOf(states_[0].get(), {*vd, 0}), original);
  net_->RegisterService(nodes_[1], PetalServer::kServiceName, servers_[1].get());
}

TEST_F(PetalResyncTest, AllPeersDownLeavesServerNotReady) {
  PetalServerOptions opts;
  opts.resync_attempts = 2;
  opts.resync_backoff = Duration{500};
  Build(3, opts);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  for (uint64_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 1)).ok());
  }
  obs::Counter* degraded = obs::MetricsRegistry::Default()->GetCounter("petal.resync_degraded");
  uint64_t degraded_before = degraded->value();
  net_->SetNodeUp(nodes_[1], false);
  net_->SetNodeUp(nodes_[2], false);
  servers_[0]->SetReady(false);
  Status st = servers_[0]->ResyncFromPeers();
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(servers_[0]->ready());
  EXPECT_GT(degraded->value(), degraded_before);
  // Not-ready means client I/O is refused, not served stale.
  Encoder read;
  read.PutU32(*vd);
  read.PutU64(0);
  read.PutU32(512);
  StatusOr<Bytes> reply = net_->Call(client_node_, nodes_[0], PetalServer::kServiceName,
                                     PetalServer::kRead, read.buffer());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  // Peers back: the retry succeeds and the server comes up clean.
  net_->SetNodeUp(nodes_[1], true);
  net_->SetNodeUp(nodes_[2], true);
  ASSERT_TRUE(servers_[0]->ResyncFromPeers().ok());
  EXPECT_TRUE(servers_[0]->ready());
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, kChunkSize, &back).ok());
  EXPECT_EQ(back, Pattern(kChunkSize, 1));
}

TEST_F(PetalResyncTest, RejectedPushDoesNotDropLocalCopy) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(kChunkSize, 1)).ok());
  ASSERT_TRUE(states_[0]->HasChunk({*vd, 0}));
  // Retire server 0: rebalance must move its chunks to server 1 and only
  // then drop them locally.
  ASSERT_TRUE(servers_[1]->ProposeRemoveServer(nodes_[0]).ok());
  servers_[0]->paxos()->CatchUp();
  servers_[1]->paxos()->CatchUp();

  // A peer whose push reply is transport-ok but carries no confirmation
  // (e.g. it failed to decode the push): the local copy must survive.
  StubPetalService stub;
  stub.handler = [](uint32_t, const Bytes&) -> StatusOr<Bytes> { return Bytes{}; };
  net_->RegisterService(nodes_[1], PetalServer::kServiceName, &stub);
  ASSERT_TRUE(servers_[0]->Rebalance().ok());
  EXPECT_TRUE(states_[0]->HasChunk({*vd, 0}))
      << "unconfirmed push must not drop the only local copy";

  // With the real peer back, the push is confirmed and the drop happens.
  net_->RegisterService(nodes_[1], PetalServer::kServiceName, servers_[1].get());
  ASSERT_TRUE(servers_[0]->Rebalance().ok());
  EXPECT_FALSE(states_[0]->HasChunk({*vd, 0}));
  EXPECT_TRUE(states_[1]->HasChunk({*vd, 0}));
}

TEST_F(PetalResyncTest, ResyncWithoutFaultsConverges) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  for (uint64_t c = 0; c < 12; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 1)).ok());
  }
  net_->SetNodeUp(nodes_[0], false);
  for (uint64_t c = 0; c < 12; ++c) {
    ASSERT_TRUE(client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 2)).ok());
  }
  servers_[0]->SetReady(false);
  net_->SetNodeUp(nodes_[0], true);
  ASSERT_TRUE(servers_[0]->ResyncFromPeers().ok());
  EXPECT_TRUE(servers_[0]->ready());
  ExpectConverged(*vd, 0, 12);
}

}  // namespace
}  // namespace frangipani
