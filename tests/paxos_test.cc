#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/paxos/paxos.h"

namespace frangipani {
namespace {

struct Peer {
  std::unique_ptr<PaxosDurableState> state = std::make_unique<PaxosDurableState>();
  std::unique_ptr<PaxosPeer> peer;
  std::mutex mu;
  std::vector<Bytes> applied;
};

class PaxosTest : public ::testing::Test {
 protected:
  void Build(int n) {
    std::vector<NodeId> members;
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(net_.AddNode("p" + std::to_string(i)));
      members.push_back(nodes_.back());
    }
    peers_.resize(n);
    for (int i = 0; i < n; ++i) {
      Peer* p = &peers_[i];
      p->peer = std::make_unique<PaxosPeer>(&net_, nodes_[i], members, p->state.get(),
                                            [p](uint64_t idx, const Bytes& cmd) {
                                              std::lock_guard<std::mutex> guard(p->mu);
                                              p->applied.push_back(cmd);
                                            });
    }
  }

  Network net_;
  std::vector<NodeId> nodes_;
  std::deque<Peer> peers_;
};

Bytes Cmd(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST_F(PaxosTest, SingleProposerDecides) {
  Build(3);
  auto idx = peers_[0].peer->Propose(Cmd("hello"));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  for (auto& p : peers_) {
    p.peer->CatchUp();
    std::lock_guard<std::mutex> guard(p.mu);
    ASSERT_EQ(p.applied.size(), 1u);
    EXPECT_EQ(p.applied[0], Cmd("hello"));
  }
}

TEST_F(PaxosTest, SequentialCommandsOrdered) {
  Build(3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(peers_[i % 3].peer->Propose(Cmd("c" + std::to_string(i))).ok());
  }
  for (auto& p : peers_) {
    p.peer->CatchUp();
    std::lock_guard<std::mutex> guard(p.mu);
    ASSERT_EQ(p.applied.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(p.applied[i], Cmd("c" + std::to_string(i)));
    }
  }
}

TEST_F(PaxosTest, ConcurrentProposersAllDecideAllAgree) {
  Build(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 5; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(
            peers_[t].peer->Propose(Cmd("t" + std::to_string(t) + "." + std::to_string(i)))
                .ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (auto& p : peers_) {
    p.peer->CatchUp();
  }
  std::lock_guard<std::mutex> g0(peers_[0].mu);
  ASSERT_EQ(peers_[0].applied.size(), 25u);
  for (size_t i = 1; i < peers_.size(); ++i) {
    std::lock_guard<std::mutex> gi(peers_[i].mu);
    EXPECT_EQ(peers_[i].applied, peers_[0].applied) << "peer " << i << " log differs";
  }
}

// Peer 0's accept for slot 0 reaches only its own acceptor; meanwhile peer 1
// prepares slot 0, adopts peer 0's accepted command and gets it chosen there.
// Peer 0's Propose must then return slot 0 instead of proposing the same
// command again at a later slot (which would apply it twice).
TEST_F(PaxosTest, ProposerWhoseCommandWasAdoptedReturnsThatSlot) {
  Build(3);
  // Peer 0 reaches peer 1 only, and peer 1 drops the first accept peer 0
  // sends it, after running its own proposal to completion.
  class DropFirstAcceptFrom : public Service {
   public:
    DropFirstAcceptFrom(Service* inner, NodeId from, std::function<void()> before_drop)
        : inner_(inner), from_(from), before_drop_(std::move(before_drop)) {}
    StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override {
      constexpr uint32_t kAccept = 2;
      if (method == kAccept && from == from_ && !dropped_) {
        dropped_ = true;
        before_drop_();
        return Unavailable("accept dropped");
      }
      return inner_->Handle(method, request, from);
    }

   private:
    Service* inner_;
    NodeId from_;
    std::function<void()> before_drop_;
    bool dropped_ = false;
  };
  net_.SetPartitioned(nodes_[0], nodes_[2], true);
  StatusOr<uint64_t> competitor = Unavailable("not run");
  DropFirstAcceptFrom gate(peers_[1].peer.get(), nodes_[0],
                           [&] { competitor = peers_[1].peer->Propose(Cmd("b")); });
  net_.RegisterService(nodes_[1], PaxosPeer::kServiceName, &gate);

  StatusOr<uint64_t> idx = peers_[0].peer->Propose(Cmd("a"));
  net_.RegisterService(nodes_[1], PaxosPeer::kServiceName, peers_[1].peer.get());
  net_.SetPartitioned(nodes_[0], nodes_[2], false);
  ASSERT_TRUE(competitor.ok());
  EXPECT_EQ(*competitor, 1u);  // peer 1 finished "a" at slot 0 first
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  for (auto& p : peers_) {
    p.peer->CatchUp();
    std::lock_guard<std::mutex> guard(p.mu);
    EXPECT_EQ(p.applied, (std::vector<Bytes>{Cmd("a"), Cmd("b")}));
  }
}

TEST_F(PaxosTest, ToleratesMinorityDown) {
  Build(5);
  net_.SetNodeUp(nodes_[3], false);
  net_.SetNodeUp(nodes_[4], false);
  ASSERT_TRUE(peers_[0].peer->Propose(Cmd("majority")).ok());
  net_.SetNodeUp(nodes_[3], true);
  net_.SetNodeUp(nodes_[4], true);
  peers_[4].peer->CatchUp();
  std::lock_guard<std::mutex> guard(peers_[4].mu);
  ASSERT_EQ(peers_[4].applied.size(), 1u);
  EXPECT_EQ(peers_[4].applied[0], Cmd("majority"));
}

TEST_F(PaxosTest, FailsWithoutMajority) {
  Build(3);
  net_.SetNodeUp(nodes_[1], false);
  net_.SetNodeUp(nodes_[2], false);
  auto idx = peers_[0].peer->Propose(Cmd("nope"));
  EXPECT_FALSE(idx.ok());
}

TEST_F(PaxosTest, SafeUnderMessageLoss) {
  Build(3);
  net_.SetDropProbability(0.2);
  int decided = 0;
  for (int i = 0; i < 10; ++i) {
    if (peers_[i % 3].peer->Propose(Cmd("lossy" + std::to_string(i))).ok()) {
      ++decided;
    }
  }
  net_.SetDropProbability(0);
  for (auto& p : peers_) {
    p.peer->CatchUp();
  }
  // All peers agree on a common prefix covering every decided command.
  std::lock_guard<std::mutex> g0(peers_[0].mu);
  EXPECT_GE(static_cast<int>(peers_[0].applied.size()), decided);
  for (size_t i = 1; i < peers_.size(); ++i) {
    std::lock_guard<std::mutex> gi(peers_[i].mu);
    EXPECT_EQ(peers_[i].applied, peers_[0].applied);
  }
}

TEST_F(PaxosTest, RestartedPeerKeepsPromises) {
  Build(3);
  ASSERT_TRUE(peers_[0].peer->Propose(Cmd("before")).ok());
  // Simulate peer 2 process restart: new runtime over the same durable state.
  std::vector<NodeId> members = nodes_;
  Peer* p2 = &peers_[2];
  p2->peer.reset();
  {
    std::lock_guard<std::mutex> guard(p2->mu);
    p2->applied.clear();
  }
  p2->peer = std::make_unique<PaxosPeer>(&net_, nodes_[2], members, p2->state.get(),
                                         [p2](uint64_t idx, const Bytes& cmd) {
                                           std::lock_guard<std::mutex> guard(p2->mu);
                                           p2->applied.push_back(cmd);
                                         });
  p2->peer->CatchUp();
  {
    std::lock_guard<std::mutex> guard(p2->mu);
    ASSERT_EQ(p2->applied.size(), 1u);  // replays from durable state
    EXPECT_EQ(p2->applied[0], Cmd("before"));
  }
  ASSERT_TRUE(p2->peer->Propose(Cmd("after")).ok());
  std::lock_guard<std::mutex> guard(p2->mu);
  ASSERT_EQ(p2->applied.size(), 2u);
}

}  // namespace
}  // namespace frangipani
