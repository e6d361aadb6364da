#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <utility>

#include "src/fs/device.h"
#include "src/fs/inode.h"
#include "src/petal/petal_client.h"
#include "src/petal/petal_server.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

class PetalTest : public ::testing::Test {
 protected:
  void Build(int n, int disks = 2) {
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      states_.emplace_back(std::make_unique<PetalServerDurable>());
      servers_.push_back(StartServer(i, disks));
    }
    client_node_ = net_.AddNode("client");
    client_ = std::make_unique<PetalClient>(&net_, client_node_, nodes_);
    ASSERT_TRUE(client_->RefreshMap().ok());
  }

  std::unique_ptr<PetalServer> StartServer(int i, int disks) {
    PetalServerOptions opts;
    opts.num_disks = disks;
    opts.disk.timing_enabled = false;
    return std::make_unique<PetalServer>(&net_, nodes_[i], nodes_, nodes_, states_[i].get(), opts,
                                         SystemClock::Get());
  }

  int64_t NowUs() {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               SystemClock::Get()->Now().time_since_epoch())
        .count();
  }

  Bytes Pattern(size_t n, uint8_t seed = 3) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>((i * 37 + seed) & 0xFF);
    }
    return out;
  }

  Network net_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> states_;
  std::vector<std::unique_ptr<PetalServer>> servers_;
  NodeId client_node_ = kInvalidNode;
  std::unique_ptr<PetalClient> client_;
};

TEST_F(PetalTest, CreateWriteRead) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  Bytes data = Pattern(1000);
  ASSERT_TRUE(client_->Write(*vd, 12345, data).ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 12345, 1000, &back).ok());
  EXPECT_EQ(back, data);
}

// A primary charges its disk while it forwards the write to the replica,
// so the write pays the larger of the two, not their sum.
TEST_F(PetalTest, ReplicatedWriteOverlapsTheDiskWithTheForward) {
  constexpr Duration kSeek(150'000);    // every access here seeks
  constexpr Duration kLatency(30'000);  // one way
  for (int i = 0; i < 2; ++i) {
    nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
  }
  for (int i = 0; i < 2; ++i) {
    states_.emplace_back(std::make_unique<PetalServerDurable>());
    PetalServerOptions opts;
    opts.num_disks = 1;
    opts.disk.seek_time = kSeek;
    opts.disk.transfer_bps = 1e9;
    servers_.push_back(std::make_unique<PetalServer>(&net_, nodes_[i], nodes_, nodes_,
                                                     states_[i].get(), opts,
                                                     SystemClock::Get()));
  }
  client_node_ = net_.AddNode("client");
  client_ = std::make_unique<PetalClient>(&net_, client_node_, nodes_);
  ASSERT_TRUE(client_->RefreshMap().ok());
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok()) << vd.status();
  for (NodeId n : {nodes_[0], nodes_[1], client_node_}) {
    net_.SetLinkParams(n, LinkParams{.latency = kLatency});
  }

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(512)).ok());
  const auto took = std::chrono::steady_clock::now() - start;
  // The client's round trip, then the primary's disk beside the forward
  // (a round trip and the replica's disk).
  const Duration forward = 2 * kLatency + kSeek;
  const Duration overlapped = 2 * kLatency + std::max(kSeek, forward);  // 270 ms
  const Duration serial = 2 * kLatency + kSeek + forward;               // 420 ms
  EXPECT_GE(took, overlapped - Duration(5'000));
  EXPECT_LT(took, (overlapped + serial) / 2);
}

TEST_F(PetalTest, SparseReadsZero) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 1ull << 40, 512, &back).ok());
  EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](uint8_t b) { return b == 0; }));
}

TEST_F(PetalTest, CrossChunkIo) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(3 * kChunkSize);
  uint64_t off = kChunkSize - 100;  // spans 4 chunks
  ASSERT_TRUE(client_->Write(*vd, off, data).ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, off, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(PetalTest, WritesAreReplicated) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(kChunkSize);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  // Chunk 0's primary and secondary both hold it.
  int holders = 0;
  for (auto& state : states_) {
    if (state->HasChunk({*vd, 0})) {
      ++holders;
    }
  }
  EXPECT_EQ(holders, 2);
}

TEST_F(PetalTest, FailoverToSecondaryOnPrimaryCrash) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(4096);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  PetalGlobalMap map = client_->MapSnapshot();
  Replicas place = PlaceChunk(map, 0);
  net_.SetNodeUp(place.primary, false);
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, 4096, &back).ok());
  EXPECT_EQ(back, data);
  // Degraded writes land on the secondary.
  Bytes data2 = Pattern(4096, 9);
  ASSERT_TRUE(client_->Write(*vd, 0, data2).ok());
  ASSERT_TRUE(client_->Read(*vd, 0, 4096, &back).ok());
  EXPECT_EQ(back, data2);
}

TEST_F(PetalTest, RestartedPrimaryResyncsMissedWrites) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(4096, 1)).ok());
  PetalGlobalMap map = client_->MapSnapshot();
  Replicas place = PlaceChunk(map, 0);
  size_t primary_idx = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == place.primary) {
      primary_idx = i;
    }
  }
  net_.SetNodeUp(place.primary, false);
  Bytes newer = Pattern(4096, 2);
  ASSERT_TRUE(client_->Write(*vd, 0, newer).ok());
  // Restart: not ready until resync completes.
  servers_[primary_idx]->SetReady(false);
  net_.SetNodeUp(place.primary, true);
  ASSERT_TRUE(servers_[primary_idx]->ResyncFromPeers().ok());
  // Read must see the newer data even though it goes to the primary.
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, 4096, &back).ok());
  EXPECT_EQ(back, newer);
}

TEST_F(PetalTest, SnapshotIsImmutableAndStable) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes v1 = Pattern(kChunkSize, 1);
  ASSERT_TRUE(client_->Write(*vd, 0, v1).ok());
  auto snap = client_->Snapshot(*vd);
  ASSERT_TRUE(snap.ok()) << snap.status();
  // Snapshot rejects writes.
  EXPECT_EQ(client_->Write(*snap, 0, v1).code(), StatusCode::kPermissionDenied);
  // Writing the source does not disturb the snapshot (copy-on-write).
  Bytes v2 = Pattern(kChunkSize, 2);
  ASSERT_TRUE(client_->Write(*vd, 0, v2).ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*snap, 0, kChunkSize, &back).ok());
  EXPECT_EQ(back, v1);
  ASSERT_TRUE(client_->Read(*vd, 0, kChunkSize, &back).ok());
  EXPECT_EQ(back, v2);
}

TEST_F(PetalTest, CloneIsWritable) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(512, 1)).ok());
  auto clone = client_->Clone(*vd);
  ASSERT_TRUE(clone.ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*clone, 0, 512, &back).ok());
  EXPECT_EQ(back, Pattern(512, 1));
  ASSERT_TRUE(client_->Write(*clone, 0, Pattern(512, 2)).ok());
  ASSERT_TRUE(client_->Read(*vd, 0, 512, &back).ok());
  EXPECT_EQ(back, Pattern(512, 1));  // source untouched
}

TEST_F(PetalTest, DecommitFreesChunks) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(2 * kChunkSize)).ok());
  uint64_t before = 0;
  for (auto& s : servers_) {
    before += s->chunk_count();
  }
  EXPECT_EQ(before, 4u);  // 2 chunks x 2 replicas
  ASSERT_TRUE(client_->Decommit(*vd, 0, 2 * kChunkSize).ok());
  uint64_t after = 0;
  for (auto& s : servers_) {
    after += s->chunk_count();
  }
  EXPECT_EQ(after, 0u);
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, 512, &back).ok());
  EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](uint8_t b) { return b == 0; }));
}

TEST_F(PetalTest, AddServerRebalances) {
  Build(4);
  // Start with 3 active servers; the 4th is known to Paxos but not active.
  // (Build made all 4 active; emulate by removing then re-adding.)
  ASSERT_TRUE(servers_[0]->ProposeRemoveServer(nodes_[3]).ok());
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(client_->RefreshMap().ok());
  Bytes data = Pattern(8 * kChunkSize);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  EXPECT_EQ(servers_[3]->chunk_count(), 0u);

  ASSERT_TRUE(servers_[0]->ProposeAddServer(nodes_[3]).ok());
  for (auto& s : servers_) {
    s->paxos()->CatchUp();
    ASSERT_TRUE(s->Rebalance().ok());
  }
  ASSERT_TRUE(client_->RefreshMap().ok());
  EXPECT_GT(servers_[3]->chunk_count(), 0u);
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(PetalTest, RemoveServerKeepsDataAvailable) {
  Build(4);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(8 * kChunkSize);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  ASSERT_TRUE(servers_[0]->ProposeRemoveServer(nodes_[3]).ok());
  for (size_t i = 0; i < servers_.size(); ++i) {
    servers_[i]->paxos()->CatchUp();
    ASSERT_TRUE(servers_[i]->Rebalance().ok());
  }
  net_.SetNodeUp(nodes_[3], false);
  ASSERT_TRUE(client_->RefreshMap().ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(PetalTest, ExpiredLeaseWriteFenced) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  int64_t past = NowUs() - 1'000'000;
  Status st = client_->Write(*vd, 0, Pattern(512), past);
  EXPECT_EQ(st.code(), StatusCode::kPermissionDenied);
  int64_t future = past + 3'600'000'000ll;
  EXPECT_TRUE(client_->Write(*vd, 0, Pattern(512), future).ok());
}

TEST_F(PetalTest, DecommitOfASnapshotIsRefused) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes v1 = Pattern(2 * kChunkSize, 1);
  ASSERT_TRUE(client_->Write(*vd, 0, v1).ok());
  auto snap = client_->Snapshot(*vd);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(client_->Decommit(*snap, 0, 2 * kChunkSize).code(), StatusCode::kPermissionDenied);
  Bytes back;
  ASSERT_TRUE(client_->Read(*snap, 0, v1.size(), &back).ok());
  EXPECT_EQ(back, v1);
  EXPECT_EQ(client_->Decommit(*snap + 100, 0, kChunkSize).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PetalTest, ExpiredLeaseDecommitFenced) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(kChunkSize);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  int64_t past = NowUs() - 1'000'000;
  EXPECT_EQ(client_->Decommit(*vd, 0, kChunkSize, past).code(), StatusCode::kPermissionDenied);
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, kChunkSize, &back).ok());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(client_->Decommit(*vd, 0, kChunkSize, past + 3'600'000'000ll).ok());
  ASSERT_TRUE(client_->Read(*vd, 0, kChunkSize, &back).ok());
  EXPECT_EQ(back, Bytes(kChunkSize, 0));
}

// ---- the physical map: each server puts a new blob on its least-loaded disk ----

TEST_F(PetalTest, ChunksCongruentMod63GetDistinctDisks) {
  // Seven servers, nine disks: chunk i has its primary on server i mod 7,
  // so under a disk rule of i mod 9 every chunk below would share one disk.
  Build(7, 9);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  for (uint64_t k = 0; k < 9; ++k) {
    ASSERT_TRUE(client_->Write(*vd, ChunkBase(63 * k), Pattern(512)).ok());
  }
  for (int server : {0, 1}) {  // the primary and the secondary of every chunk
    std::set<int> disks;
    for (uint64_t k = 0; k < 9; ++k) {
      disks.insert(states_[server]->DiskOf({*vd, 63 * k}));
    }
    EXPECT_EQ(disks, (std::set<int>{0, 1, 2, 3, 4, 5, 6, 7, 8})) << "server " << server;
  }
}

TEST_F(PetalTest, DecommitFreesTheDiskForTheNextChunk) {
  Build(1, 9);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  for (uint64_t i = 0; i < 4; ++i) {  // one at a time: a multi-chunk write is parallel
    ASSERT_TRUE(client_->Write(*vd, ChunkBase(i), Pattern(512)).ok());
  }
  ASSERT_EQ(states_[0]->DiskOf({*vd, 1}), 1);
  ASSERT_TRUE(client_->Decommit(*vd, kChunkSize, kChunkSize).ok());
  EXPECT_EQ(states_[0]->DiskOf({*vd, 1}), -1);
  EXPECT_EQ(states_[0]->DiskBlobCounts(), (std::vector<uint64_t>{1, 0, 1, 1, 0, 0, 0, 0, 0}));
  ASSERT_TRUE(client_->Write(*vd, ChunkBase(50), Pattern(512)).ok());
  EXPECT_EQ(states_[0]->DiskOf({*vd, 50}), 1);
}

TEST_F(PetalTest, CopyOnWriteCopyGetsItsOwnDisk) {
  Build(1, 9);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(512, 1)).ok());
  auto snap = client_->Snapshot(*vd);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(states_[0]->DiskOf({*snap, 0}), 0);  // shared blob, shared disk
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(512, 2)).ok());
  EXPECT_EQ(states_[0]->DiskOf({*snap, 0}), 0);
  EXPECT_EQ(states_[0]->DiskOf({*vd, 0}), 1);
  EXPECT_EQ(states_[0]->DiskBlobCounts(), (std::vector<uint64_t>{1, 1, 0, 0, 0, 0, 0, 0, 0}));
}

TEST_F(PetalTest, DiskCountsSurviveARestart) {
  Build(1, 9);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(client_->Write(*vd, ChunkBase(i), Pattern(512)).ok());
  }
  const std::vector<uint64_t> counts = states_[0]->DiskBlobCounts();
  EXPECT_EQ(counts, (std::vector<uint64_t>{1, 1, 1, 0, 0, 0, 0, 0, 0}));
  servers_[0].reset();
  servers_[0] = StartServer(0, 9);
  EXPECT_EQ(states_[0]->DiskBlobCounts(), counts);
  ASSERT_TRUE(client_->Write(*vd, ChunkBase(7), Pattern(512)).ok());
  EXPECT_EQ(states_[0]->DiskOf({*vd, 7}), 3);
  EXPECT_EQ(states_[0]->DiskOf({*vd, 2}), 2);
}

// The paper's testbed shape with a shared directory: after mkfs, four
// mounts, a mkdir and one synced create per node, the four logs, the root
// inode and the directory's first block each have both replicas on
// spindles of their own, so no log append seeks against directory traffic.
TEST(PetalPlacementClusterTest, HotChunksOfASharedDirectoryGetTheirOwnSpindles) {
  ClusterOptions opts;  // 7 Petal servers x 9 disks, timing off
  opts.node.fs.sync_log = true;
  opts.geometry.num_segments = 256;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kNodes = 4;
  for (int m = 0; m < kNodes; ++m) {
    ASSERT_TRUE(cluster.AddFrangipani().ok());
  }
  ASSERT_TRUE(cluster.fs(0)->Mkdir("/shared").ok());
  for (int m = 0; m < kNodes; ++m) {
    ASSERT_TRUE(cluster.fs(m)->Create("/shared/f" + std::to_string(m)).ok());
  }
  for (int m = 0; m < kNodes; ++m) {
    ASSERT_TRUE(cluster.fs(m)->SyncAll().ok());
  }

  const Geometry& geo = cluster.geometry();
  PetalDevice device(cluster.admin_petal(), cluster.vdisk());
  auto dir_ino = cluster.fs(0)->Lookup("/shared");
  ASSERT_TRUE(dir_ino.ok());
  Bytes raw;
  ASSERT_TRUE(device.Read(geo.InodeAddr(*dir_ino), kInodeSize, &raw).ok());
  auto dir = Inode::Decode(raw);
  ASSERT_TRUE(dir.ok());
  ASSERT_NE(dir->small[0], 0u);

  std::vector<std::pair<std::string, uint64_t>> hot;  // name, chunk index
  for (uint32_t slot = 0; slot < kNodes; ++slot) {
    hot.emplace_back("log " + std::to_string(slot), ChunkIndexOf(geo.LogAddr(slot)));
  }
  hot.emplace_back("root inode", ChunkIndexOf(geo.InodeAddr(kRootInode)));
  hot.emplace_back("directory block", ChunkIndexOf(geo.SmallBlockAddr(dir->small[0])));

  const PetalGlobalMap map = cluster.admin_petal()->MapSnapshot();
  const std::vector<NodeId> petals = cluster.petal_nodes();
  std::set<std::pair<NodeId, int>> spindles;
  size_t placed = 0;
  for (const auto& [name, index] : hot) {
    Replicas place = PlaceChunk(map, index);
    for (NodeId server : {place.primary, place.secondary}) {
      size_t s = std::find(petals.begin(), petals.end(), server) - petals.begin();
      ASSERT_LT(s, petals.size());
      int disk = cluster.petal_durable(s)->DiskOf({cluster.vdisk(), index});
      ASSERT_GE(disk, 0) << name << " missing on server " << s;
      spindles.insert({server, disk});
      ++placed;
      EXPECT_EQ(spindles.size(), placed) << name << " shares server " << s << " disk " << disk;
    }
  }
}

}  // namespace
}  // namespace frangipani
