#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "src/net/network.h"

namespace frangipani {
namespace {

class EchoService : public Service {
 public:
  StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) override {
    calls.fetch_add(1);
    last_from = from;
    if (method == 99) {
      return Internal("requested failure");
    }
    Bytes reply = request;
    reply.push_back(static_cast<uint8_t>(method));
    return reply;
  }
  std::atomic<int> calls{0};
  std::atomic<NodeId> last_from{kInvalidNode};
};

TEST(NetworkTest, BasicCall) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto reply = net.Call(a, b, "echo", 7, {1, 2, 3});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, (Bytes{1, 2, 3, 7}));
  EXPECT_EQ(echo.last_from.load(), a);
}

TEST(NetworkTest, HandlerErrorPropagates) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto reply = net.Call(a, b, "echo", 99, {});
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
}

TEST(NetworkTest, UnknownServiceUnavailable) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  auto reply = net.Call(a, b, "nope", 1, {});
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(NetworkTest, NodeDownUnreachable) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.SetNodeUp(b, false);
  EXPECT_EQ(net.Call(a, b, "echo", 1, {}).status().code(), StatusCode::kUnavailable);
  net.SetNodeUp(b, true);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, PartitionIsPairwiseAndSymmetric) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  NodeId c = net.AddNode("c");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.RegisterService(c, "echo", &echo);
  net.SetPartitioned(a, b, true);
  EXPECT_FALSE(net.Call(a, b, "echo", 1, {}).ok());
  EXPECT_TRUE(net.Call(a, c, "echo", 1, {}).ok());
  net.SetPartitioned(a, b, false);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, IsolationCutsAllLinks) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.RegisterService(a, "echo", &echo);
  net.SetIsolated(a, true);
  EXPECT_FALSE(net.Call(a, b, "echo", 1, {}).ok());
  EXPECT_FALSE(net.Call(b, a, "echo", 1, {}).ok());
  net.SetIsolated(a, false);
  EXPECT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
}

TEST(NetworkTest, LatencyModelDelaysCalls) {
  LinkParams params;
  params.latency = Duration(20'000);  // 20 ms one-way
  Network net(params);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, {}).ok());
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GE(elapsed, 0.039);  // request + reply propagation
}

TEST(NetworkTest, BandwidthModelLimitsThroughput) {
  LinkParams params;
  params.bandwidth_bps = 10e6;  // 10 MB/s NICs
  Network net(params);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  Bytes big(1 << 20, 0xAA);  // 1 MB
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.Call(a, b, "echo", 1, big).ok());
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // 1 MB request + ~1 MB reply at 10 MB/s: >= ~0.2 s.
  EXPECT_GE(elapsed, 0.19);
  EXPECT_GE(net.BytesThrough(a), 2u << 20);
}

TEST(NetworkTest, DropProbabilityLosesMessages) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  net.SetDropProbability(0.5);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    if (!net.Call(a, b, "echo", 1, {}).ok()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 190);
}

TEST(NetworkTest, ConcurrentCallsSafe) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  EchoService echo;
  net.RegisterService(b, "echo", &echo);
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (net.Call(a, b, "echo", 1, {9}).ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 400);
  EXPECT_EQ(echo.calls.load(), 400);
}

// Each node issues async IO on its own pool: a machine whose pool is busy
// (here, every thread blocked and more tasks queued) holds up no other
// machine's CallAsync or ParallelFor.
TEST(NetworkTest, BusyIoPoolOfOneNodeDoesNotStallAnother) {
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  NodeId c = net.AddNode("c");
  EchoService echo;
  net.RegisterService(c, "echo", &echo);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> ran{0};
  const int blocked = 4 * Network::kIoThreadsPerNode;
  for (int i = 0; i < blocked; ++i) {
    net.SubmitIo(a, [released, &ran] {
      released.wait();
      ran.fetch_add(1);
    });
  }
  constexpr auto kPrompt = std::chrono::seconds(5);
  std::future<StatusOr<Bytes>> call = net.CallAsync(b, c, "echo", 1, {7});
  const bool call_done = call.wait_for(kPrompt) == std::future_status::ready;
  std::future<Status> gather = std::async(std::launch::async, [&] {
    return net.ParallelFor(b, /*count=*/8, /*window=*/4,
                           [&](size_t) { return net.Call(b, c, "echo", 2, {}).status(); });
  });
  const bool gather_done = gather.wait_for(kPrompt) == std::future_status::ready;
  // Let a's tasks finish before any check can return early.
  release.set_value();
  EXPECT_TRUE(call_done);
  EXPECT_TRUE(gather_done);
  EXPECT_TRUE(call.get().ok());
  EXPECT_TRUE(gather.get().ok());
  EXPECT_EQ(echo.calls.load(), 9);
  while (ran.load() < blocked) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace
}  // namespace frangipani
