// Sharded Petal chunk store: concurrent client streams on different chunks
// must not corrupt the store (TSan target), and every cross-shard path —
// snapshot/clone COW, DeleteVdisk sweep, decommit, resync pull — must see
// all shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/petal/petal_client.h"
#include "src/petal/petal_server.h"

namespace frangipani {
namespace {

class PetalShardTest : public ::testing::Test {
 protected:
  void Build(int n, int disks = 2) {
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(net_.AddNode("petal" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      states_.push_back(std::make_unique<PetalServerDurable>());
      PetalServerOptions opts;
      opts.num_disks = disks;
      opts.disk.timing_enabled = false;
      servers_.push_back(std::make_unique<PetalServer>(&net_, nodes_[i], nodes_, nodes_,
                                                       states_.back().get(), opts,
                                                       SystemClock::Get()));
    }
    client_node_ = net_.AddNode("client");
    client_ = std::make_unique<PetalClient>(&net_, client_node_, nodes_);
    ASSERT_TRUE(client_->RefreshMap().ok());
  }

  Bytes Pattern(size_t n, uint8_t seed) {
    Bytes out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint8_t>((i * 31 + seed) & 0xFF);
    }
    return out;
  }

  uint64_t TotalBlobs() {
    uint64_t n = 0;
    for (auto& s : states_) {
      n += s->TotalBlobs();
    }
    return n;
  }

  Network net_;
  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<PetalServerDurable>> states_;
  std::vector<std::unique_ptr<PetalServer>> servers_;
  NodeId client_node_ = kInvalidNode;
  std::unique_ptr<PetalClient> client_;
};

TEST_F(PetalShardTest, ConcurrentChunkTrafficAcrossShards) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  // Each thread owns a disjoint set of chunks spread over every shard
  // (chunk index striding by thread count) and hammers write/read cycles
  // through the shared client. With 2 servers every write also exercises
  // the replica-forward path concurrently. TSan target.
  constexpr int kThreads = 4;
  constexpr int kChunksPerThread = 8;
  constexpr int kRounds = 4;
  std::vector<std::thread> workers;
  std::vector<Status> results(kThreads, Unavailable("not run"));
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int c = 0; c < kChunksPerThread; ++c) {
          uint64_t chunk = static_cast<uint64_t>(c) * kThreads + t;
          Bytes data = Pattern(kChunkSize, static_cast<uint8_t>(round * 16 + t));
          Status st = client_->Write(*vd, chunk * kChunkSize, data);
          if (!st.ok()) {
            results[t] = st;
            return;
          }
          Bytes back;
          st = client_->Read(*vd, chunk * kChunkSize, kChunkSize, &back);
          if (!st.ok() || back != data) {
            results[t] = st.ok() ? Internal("readback mismatch") : st;
            return;
          }
        }
      }
      results[t] = OkStatus();
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(results[t].ok()) << "thread " << t << ": " << results[t];
  }
  // Every chunk is fully replicated; no duplicates, none lost.
  uint64_t total = 0;
  for (auto& s : servers_) {
    total += s->chunk_count();
  }
  EXPECT_EQ(total, 2u * kThreads * kChunksPerThread);
}

TEST_F(PetalShardTest, ConcurrentWritesAndDecommits) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  constexpr int kChunks = 32;
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(kChunks * kChunkSize, 1)).ok());
  // One thread decommits even chunks while another rewrites odd chunks:
  // the operations land on interleaved shards with no ordering between
  // them, and the store must end with exactly the odd chunks present.
  std::atomic<bool> failed{false};
  std::thread decommitter([&] {
    for (uint64_t c = 0; c < kChunks; c += 2) {
      if (!client_->Decommit(*vd, c * kChunkSize, kChunkSize).ok()) {
        failed.store(true);
      }
    }
  });
  std::thread writer([&] {
    for (uint64_t c = 1; c < kChunks; c += 2) {
      if (!client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 2)).ok()) {
        failed.store(true);
      }
    }
  });
  decommitter.join();
  writer.join();
  ASSERT_FALSE(failed.load());
  for (uint64_t c = 0; c < kChunks; ++c) {
    bool held = false;
    for (auto& s : states_) {
      held = held || s->HasChunk({*vd, c});
    }
    EXPECT_EQ(held, c % 2 == 1) << "chunk " << c;
    Bytes back;
    ASSERT_TRUE(client_->Read(*vd, c * kChunkSize, 64, &back).ok());
    if (c % 2 == 0) {
      EXPECT_TRUE(std::all_of(back.begin(), back.end(), [](uint8_t b) { return b == 0; }))
          << "chunk " << c;
    }
  }
}

TEST_F(PetalShardTest, DiskCountsStayExactUnderConcurrentCreatesAndDecommits) {
  Build(2, /*disks=*/9);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  // Sixteen threads each create and decommit their own chunks, strided so
  // every shard sees several threads: blobs are created and freed on many
  // shards at once, and each server's per-disk counts must still add up to
  // the blobs it holds, disk by disk. TSan target.
  constexpr int kThreads = 16;
  constexpr int kChunksPerThread = 6;
  constexpr int kRounds = 3;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int c = 0; c < kChunksPerThread; ++c) {
          uint64_t chunk = static_cast<uint64_t>(c) * kThreads + t;
          if (!client_->Write(*vd, chunk * kChunkSize, Pattern(512, 1)).ok()) {
            failed.store(true);
          }
          // Keep the last round's odd chunks; drop everything else.
          if ((round < kRounds - 1 || c % 2 == 0) &&
              !client_->Decommit(*vd, chunk * kChunkSize, kChunkSize).ok()) {
            failed.store(true);
          }
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ASSERT_FALSE(failed.load());
  for (size_t i = 0; i < states_.size(); ++i) {
    PetalServerDurable& state = *states_[i];
    std::vector<uint64_t> held(9, 0);
    for (uint64_t chunk = 0; chunk < uint64_t{kThreads} * kChunksPerThread; ++chunk) {
      if (int disk = state.DiskOf({*vd, chunk}); disk >= 0) {
        ++held[disk];
      }
    }
    std::vector<uint64_t> counts = state.DiskBlobCounts();
    uint64_t sum = 0;
    for (uint64_t n : counts) {
      sum += n;
    }
    EXPECT_EQ(sum, state.TotalBlobs()) << "server " << i;
    EXPECT_EQ(counts, held) << "server " << i;
  }
  EXPECT_EQ(TotalBlobs(), 2u * kThreads * kChunksPerThread / 2);
}

TEST_F(PetalShardTest, ConcurrentWritesWithSnapshots) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  constexpr int kChunks = 24;
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(kChunks * kChunkSize, 5)).ok());
  // Snapshots race with writes: the COW sweep iterates every shard while
  // writers mutate them. Each snapshot must afterwards read as a full,
  // self-consistent image (every chunk present and intact per chunk).
  std::vector<VdiskId> snaps;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int round = 0; round < 3; ++round) {
      for (uint64_t c = 0; c < kChunks; ++c) {
        if (!client_->Write(*vd, c * kChunkSize, Pattern(kChunkSize, 50 + round)).ok()) {
          failed.store(true);
        }
      }
    }
  });
  for (int i = 0; i < 3; ++i) {
    auto snap = client_->Snapshot(*vd);
    ASSERT_TRUE(snap.ok()) << snap.status();
    snaps.push_back(*snap);
  }
  writer.join();
  ASSERT_FALSE(failed.load());
  for (VdiskId snap : snaps) {
    for (uint64_t c = 0; c < kChunks; ++c) {
      Bytes back;
      ASSERT_TRUE(client_->Read(snap, c * kChunkSize, kChunkSize, &back).ok());
      // Whole-chunk writes mean a snapshot chunk is one of the written
      // patterns (or the preload), never a torn mix.
      Bytes expect0 = Pattern(kChunkSize, 5);
      bool matches = back == expect0;
      for (int round = 0; round < 3 && !matches; ++round) {
        matches = back == Pattern(kChunkSize, 50 + round);
      }
      EXPECT_TRUE(matches) << "snap " << snap << " chunk " << c << " torn";
    }
  }
}

TEST_F(PetalShardTest, SnapshotCowRefcountsSpanShards) {
  Build(3);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  // More chunks than shards, so the COW sweep and the refcount bookkeeping
  // run in every shard.
  constexpr int kChunks = 2 * kPetalStoreShards;
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(kChunks * kChunkSize, 9)).ok());
  uint64_t base = TotalBlobs();
  auto snap = client_->Snapshot(*vd);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(TotalBlobs(), base);  // shared, nothing copied
  // Touch one chunk per shard: exactly that many chunks are COW-copied
  // (times 2 replicas).
  for (int s = 0; s < kPetalStoreShards; ++s) {
    ASSERT_TRUE(client_->Write(*vd, static_cast<uint64_t>(s) * kChunkSize, Bytes(64, 7)).ok());
  }
  EXPECT_EQ(TotalBlobs(), base + 2 * kPetalStoreShards);
  // Source deletion leaves the snapshot intact; snapshot deletion frees all.
  ASSERT_TRUE(client_->DeleteVdisk(*vd).ok());
  Bytes back;
  uint64_t last = (kChunks - 1) * static_cast<uint64_t>(kChunkSize);
  ASSERT_TRUE(client_->Read(*snap, last, 64, &back).ok());
  Bytes original = Pattern(kChunks * kChunkSize, 9);
  EXPECT_EQ(back, Bytes(original.begin() + last, original.begin() + last + 64));
  ASSERT_TRUE(client_->DeleteVdisk(*snap).ok());
  EXPECT_EQ(TotalBlobs(), 0u);
}

TEST_F(PetalShardTest, DeleteVdiskSweepsAllShards) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  constexpr int kChunks = 3 * kPetalStoreShards;
  ASSERT_TRUE(client_->Write(*vd, 0, Pattern(kChunks * kChunkSize, 3)).ok());
  EXPECT_GT(TotalBlobs(), 0u);
  ASSERT_TRUE(client_->DeleteVdisk(*vd).ok());
  EXPECT_EQ(TotalBlobs(), 0u);
  for (auto& s : servers_) {
    EXPECT_EQ(s->chunk_count(), 0u);
  }
}

TEST_F(PetalShardTest, ResyncRecoversChunksInEveryShard) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  PetalGlobalMap map = client_->MapSnapshot();
  Replicas place = PlaceChunk(map, 0);
  size_t secondary_idx = nodes_[0] == place.secondary ? 0 : 1;
  // With 2 servers every chunk has the same primary/secondary, so a downed
  // secondary misses writes in every shard.
  constexpr int kChunks = 2 * kPetalStoreShards;
  net_.SetNodeUp(place.secondary, false);
  Bytes data = Pattern(kChunks * kChunkSize, 17);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  // Restart + resync: the pull loop must visit chunks in all shards.
  servers_[secondary_idx]->SetReady(false);
  net_.SetNodeUp(place.secondary, true);
  ASSERT_TRUE(servers_[secondary_idx]->ResyncFromPeers().ok());
  for (uint64_t c = 0; c < kChunks; ++c) {
    EXPECT_TRUE(states_[secondary_idx]->HasChunk({*vd, c})) << "chunk " << c;
  }
  // The secondary alone serves the data back byte-exact.
  net_.SetNodeUp(place.primary, false);
  Bytes back;
  ASSERT_TRUE(client_->Read(*vd, 0, data.size(), &back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(PetalShardTest, SnapshotKeepsItsChunksThroughSourceWriteAndDecommit) {
  Build(2);
  auto vd = client_->CreateVdisk();
  ASSERT_TRUE(vd.ok());
  Bytes data = Pattern(4 * kChunkSize, 23);
  ASSERT_TRUE(client_->Write(*vd, 0, data).ok());
  auto snap = client_->Snapshot(*vd);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(client_->Write(*vd, 0, Bytes(64, 1)).ok());
  Bytes back;
  ASSERT_TRUE(client_->Read(*snap, 0, 64, &back).ok());
  EXPECT_EQ(back, Bytes(data.begin(), data.begin() + 64));
  ASSERT_TRUE(client_->Read(*vd, 0, 64, &back).ok());
  EXPECT_EQ(back, Bytes(64, 1));
  ASSERT_TRUE(client_->Decommit(*vd, 0, 4 * kChunkSize).ok());
  // The source's directory entries are gone; the snapshot still holds its 4
  // chunks on both replicas.
  EXPECT_EQ(servers_[0]->chunk_count() + servers_[1]->chunk_count(), 8u);
}

}  // namespace
}  // namespace frangipani
