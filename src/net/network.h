// In-process message network connecting simulated machines ("nodes").
//
// The paper's testbed is a set of workstations with dedicated 155 Mbit/s ATM
// links to a switch. We model each node as having one NIC (a RateLimiter);
// a message of S bytes from A to B occupies both NICs for S/bandwidth seconds
// and additionally suffers a propagation latency. Modeled delays are real
// sleeps (real-time dilation), so saturation and scaling behavior reproduce
// in wall-clock measurements.
//
// RPCs execute the target service handler on the caller's thread after the
// request transmission completes; the response is then transmitted back.
// CallAsync/SubmitIo run the same synchronous call on an IO thread pool of
// the issuing node, so a caller can keep several RPCs in flight; the per-NIC
// RateLimiter occupancy model is untouched (each in-flight message still
// reserves both NICs), which is exactly what lets scatter-gather transfers
// overlap the wire and disk time of independent chunks. Each node has its
// own pool, as each of the paper's machines drives its own IO, so one
// machine's queued transfers never hold up another's.
// Every RPC is one request message and one reply message, as in the paper's
// lock protocol (§6): each lock message and each Petal chunk transfer is one
// Call.
// Failure injection: node down, pairwise partition, full isolation, random
// message drops. A failed delivery surfaces as kUnavailable, which callers
// treat like an RPC timeout.
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/rate_limiter.h"
#include "src/base/rng.h"
#include "src/base/serial.h"
#include "src/base/status.h"
#include "src/base/thread_pool.h"
#include "src/obs/trace.h"

namespace frangipani {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = 0;

// A service registered at a node. Handlers must be thread-safe: they run on
// the calling node's thread, concurrently with other callers.
class Service {
 public:
  virtual ~Service() = default;
  virtual StatusOr<Bytes> Handle(uint32_t method, const Bytes& request, NodeId from) = 0;
};

struct LinkParams {
  Duration latency{0};       // one-way propagation delay
  double bandwidth_bps = 0;  // NIC bandwidth in bytes/sec; 0 = unlimited
};

// Optional gauges fed by Network::ParallelFor: `inflight` tracks the live
// in-flight count, `inflight_peak` its high-water mark (Gauge::Max).
struct ParallelForOptions {
  obs::Gauge* inflight = nullptr;
  obs::Gauge* inflight_peak = nullptr;
};

class Network {
 public:
  // Threads of each node's IO pool.
  static constexpr int kIoThreadsPerNode = 16;

  explicit Network(LinkParams defaults = {}) : defaults_(defaults) {}

  // Joins every node's IO pool before the rest of the members are torn
  // down: a still queued or running SubmitIo/CallAsync task (e.g. a
  // CallAsync whose future was dropped) may reference nodes_/partitions_/rng
  // state.
  ~Network();

  // Adds a machine to the network and returns its id (ids start at 1).
  NodeId AddNode(std::string name);

  void RegisterService(NodeId node, const std::string& service, Service* svc);
  void UnregisterService(NodeId node, const std::string& service);

  // Synchronous RPC from `from` to `to`. Applies transmission modeling and
  // failure injection in both directions.
  StatusOr<Bytes> Call(NodeId from, NodeId to, const std::string& service, uint32_t method,
                       const Bytes& request);

  // ---- Async IO ----
  // Runs `fn` on the IO thread pool of `node`, the machine issuing the IO
  // (created at its first async call). The time the task waits for a
  // thread is recorded in net.io_queue_wait_us and, with the recorder on,
  // as a net.io_wait span. Tasks typically wrap one or more synchronous
  // Call()s; a task must never block waiting for another SubmitIo/CallAsync
  // task to finish, or a pool can deadlock at saturation. Callers own
  // completion signaling and must not return control of captured state
  // until their tasks have finished.
  void SubmitIo(NodeId node, std::function<void()> fn);

  // Asynchronous RPC: Call() executed on the IO thread pool of `from`. The
  // returned future yields exactly what the synchronous Call would have. The
  // request is taken by value so the caller's buffer can be reused
  // immediately.
  std::future<StatusOr<Bytes>> CallAsync(NodeId from, NodeId to, const std::string& service,
                                         uint32_t method, Bytes request);

  // Bounded scatter-gather: runs op(0), ..., op(count-1) on the IO pool of
  // `node` with at most `window` in flight; the caller's thread issues and
  // sleeps when the window is full (each sleep is a net.parallel_wait span).
  // Stops issuing after the first failure (already in-flight ops drain) and
  // returns that first error. window <= 1 (or count <= 1) degrades to a
  // serial loop on the caller's thread. `op` must follow the SubmitIo rule:
  // it may make synchronous Call()s but must never block on another
  // SubmitIo/CallAsync task.
  Status ParallelFor(NodeId node, size_t count, uint32_t window,
                     const std::function<Status(size_t)>& op, ParallelForOptions opts = {});

  std::string NodeName(NodeId node) const;

  // ---- Failure injection ----
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);
  void SetIsolated(NodeId node, bool isolated);
  void SetDropProbability(double p);

  void SetLinkParams(NodeId node, LinkParams params);

  // ---- Accounting ----
  uint64_t BytesThrough(NodeId node) const;

 private:
  struct Node {
    NodeId id = 0;
    std::string name;
    bool up = true;
    bool isolated = false;
    LinkParams params;
    std::unique_ptr<RateLimiter> nic;
    std::map<std::string, Service*> services;
    std::unique_ptr<ThreadPool> io_pool;  // created at the node's first async call
    obs::Counter* m_msgs = nullptr;   // messages sent by this node
    obs::Counter* m_bytes = nullptr;  // bytes sent by this node
  };

  // Returns false if delivery between the two nodes is impossible right now.
  bool Reachable(NodeId from, NodeId to);
  // Models occupancy of both NICs plus propagation; sleeps the caller.
  void Transmit(Node& src, Node& dst, size_t bytes);

  // The IO pool of `node`, created on first use.
  ThreadPool* IoPool(NodeId node);

  mutable std::mutex mu_;
  LinkParams defaults_;
  std::vector<std::unique_ptr<Node>> nodes_;  // index = id - 1
  std::set<std::pair<NodeId, NodeId>> partitions_;
  double drop_probability_ = 0;
  Rng rng_{0xF00DF00Dull};
  Histogram* m_queue_delay_us_ =
      obs::MetricsRegistry::Default()->GetHistogram("net.queue_delay_us");
  Histogram* m_io_queue_wait_us_ =
      obs::MetricsRegistry::Default()->GetHistogram("net.io_queue_wait_us");
  Histogram* m_parallel_wait_us_ =
      obs::MetricsRegistry::Default()->GetHistogram("net.parallel_wait_us");
};

}  // namespace frangipani

#endif  // SRC_NET_NETWORK_H_
