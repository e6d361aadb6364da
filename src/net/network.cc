#include "src/net/network.h"

#include <algorithm>
#include <condition_variable>
#include <thread>

#include "src/base/logging.h"
#include "src/obs/recorder.h"

namespace frangipani {

namespace {
// Envelope overhead per message.
constexpr size_t kHeaderBytes = 64;
}  // namespace

Network::~Network() {
  // Drain and join IO workers while every member they can touch is still
  // alive; default member-order destruction would free nodes_ first. A task
  // still running on one pool may submit to a node whose pool was already
  // joined, which creates it again, so repeat until no pool is left.
  for (bool joined = true; joined;) {
    joined = false;
    for (size_t i = 0;; ++i) {
      std::unique_ptr<ThreadPool> pool;
      {
        std::lock_guard<std::mutex> guard(mu_);
        if (i >= nodes_.size()) {
          break;
        }
        pool = std::move(nodes_[i]->io_pool);
      }
      joined |= pool != nullptr;
    }
  }
}

ThreadPool* Network::IoPool(NodeId node) {
  std::lock_guard<std::mutex> guard(mu_);
  FGP_CHECK(node >= 1 && node <= nodes_.size()) << "async IO from unknown node " << node;
  std::unique_ptr<ThreadPool>& pool = nodes_[node - 1]->io_pool;
  if (pool == nullptr) {
    pool = std::make_unique<ThreadPool>(kIoThreadsPerNode);
  }
  return pool.get();
}

NodeId Network::AddNode(std::string name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto node = std::make_unique<Node>();
  node->name = std::move(name);
  node->params = defaults_;
  node->nic = std::make_unique<RateLimiter>(defaults_.bandwidth_bps);
  NodeId id = static_cast<NodeId>(nodes_.size() + 1);
  node->id = id;
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  node->m_msgs = reg->GetCounter("net.n" + std::to_string(id) + ".msgs");
  node->m_bytes = reg->GetCounter("net.n" + std::to_string(id) + ".bytes");
  obs::Recorder::Default()->SetNodeName(id, node->name);
  nodes_.push_back(std::move(node));
  return id;
}

void Network::RegisterService(NodeId node, const std::string& service, Service* svc) {
  std::lock_guard<std::mutex> guard(mu_);
  FGP_CHECK(node >= 1 && node <= nodes_.size());
  nodes_[node - 1]->services[service] = svc;
}

void Network::UnregisterService(NodeId node, const std::string& service) {
  std::lock_guard<std::mutex> guard(mu_);
  if (node >= 1 && node <= nodes_.size()) {
    nodes_[node - 1]->services.erase(service);
  }
}

std::string Network::NodeName(NodeId node) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (node < 1 || node > nodes_.size()) {
    return "<invalid>";
  }
  return nodes_[node - 1]->name;
}

bool Network::Reachable(NodeId from, NodeId to) {
  // Caller holds mu_.
  if (from < 1 || from > nodes_.size() || to < 1 || to > nodes_.size()) {
    return false;
  }
  Node& src = *nodes_[from - 1];
  Node& dst = *nodes_[to - 1];
  if (!src.up || !dst.up || src.isolated || dst.isolated) {
    return false;
  }
  auto key = std::minmax(from, to);
  if (partitions_.count({key.first, key.second}) > 0) {
    return false;
  }
  if (drop_probability_ > 0 && rng_.Double() < drop_probability_) {
    return false;
  }
  return true;
}

void Network::Transmit(Node& src, Node& dst, size_t bytes) {
  // Attributed to the sending node: wire time, queueing included.
  obs::SpanScope span(obs::Layer::kNet, "net.tx", src.id, "bytes", bytes, "dst", dst.id);
  // A message occupies the sender's and the receiver's link; the completion
  // time is the later of the two reservations plus propagation latency.
  TimePoint t1 = src.nic->Acquire(bytes);
  TimePoint t2 = dst.nic->Acquire(bytes);
  TimePoint done = std::max(t1, t2) + std::max(src.params.latency, dst.params.latency);
  src.m_msgs->Increment();
  src.m_bytes->Increment(bytes);
  TimePoint now = std::chrono::steady_clock::now();
  if (done > now) {
    // Queueing + propagation delay actually imposed on this message.
    m_queue_delay_us_->Record(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(done - now)
            .count());
    std::this_thread::sleep_until(done);
  } else {
    m_queue_delay_us_->Record(0);
  }
}

StatusOr<Bytes> Network::Call(NodeId from, NodeId to, const std::string& service,
                              uint32_t method, const Bytes& request) {
  // Whole-RPC span (request wire + handler + reply wire), attributed to the
  // caller. It opens at the caller's layer and so moves no time: only the
  // wire (net.tx) is kNet, and the handler, run on this thread, stays with
  // its own layer. The interning cost is only paid while the recorder is on.
  obs::SpanScope rpc_span(
      obs::CurrentLayer(),
      obs::RecorderEnabled() ? obs::InternString("rpc." + service) : "rpc", from, "dst",
      to, "method", method);
  Service* svc = nullptr;
  Node* src = nullptr;
  Node* dst = nullptr;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!Reachable(from, to)) {
      return Unavailable("node " + std::to_string(to) + " unreachable from " +
                         std::to_string(from));
    }
    src = nodes_[from - 1].get();
    dst = nodes_[to - 1].get();
    auto it = dst->services.find(service);
    if (it == dst->services.end()) {
      return Unavailable("service '" + service + "' not registered at node " +
                         std::to_string(to));
    }
    svc = it->second;
  }

  Transmit(*src, *dst, request.size() + kHeaderBytes);
  StatusOr<Bytes> response = svc->Handle(method, request, from);

  {
    std::lock_guard<std::mutex> guard(mu_);
    // The reply can also be lost / the target can die mid-call.
    if (!Reachable(to, from)) {
      return Unavailable("reply from node " + std::to_string(to) + " lost");
    }
  }
  size_t resp_bytes = response.ok() ? response.value().size() : 0;
  Transmit(*dst, *src, resp_bytes + kHeaderBytes);
  return response;
}

void Network::SubmitIo(NodeId node, std::function<void()> fn) {
  // Carry the submitting op's trace id onto the worker so the flight
  // recorder parents pool-side spans under the op. Layer attribution is
  // untouched (InheritedTraceScope creates no TraceState).
  uint64_t trace_id = obs::CurrentTraceId();
  int64_t queued_ns = obs::MonotonicNs();
  IoPool(node)->Submit([this, node, trace_id, queued_ns, fn = std::move(fn)] {
    obs::InheritedTraceScope inherit(trace_id);
    int64_t start_ns = obs::MonotonicNs();
    m_io_queue_wait_us_->Record(static_cast<double>(start_ns - queued_ns) / 1e3);
    obs::RecordSpan(obs::Layer::kNet, "net.io_wait", node, queued_ns, start_ns);
    fn();
  });
}

std::future<StatusOr<Bytes>> Network::CallAsync(NodeId from, NodeId to,
                                                const std::string& service, uint32_t method,
                                                Bytes request) {
  auto task = std::make_shared<std::packaged_task<StatusOr<Bytes>()>>(
      [this, from, to, service, method, req = std::move(request)] {
        return Call(from, to, service, method, req);
      });
  std::future<StatusOr<Bytes>> result = task->get_future();
  // Via SubmitIo so the async call inherits the submitter's trace id.
  SubmitIo(from, [task] { (*task)(); });
  return result;
}

Status Network::ParallelFor(NodeId node, size_t count, uint32_t window,
                            const std::function<Status(size_t)>& op, ParallelForOptions opts) {
  if (count <= 1 || window <= 1) {
    for (size_t i = 0; i < count; ++i) {
      RETURN_IF_ERROR(op(i));
    }
    return OkStatus();
  }
  // Completion state is shared-owned by the tasks: a worker finishing its
  // mutex release after the caller has already observed inflight == 0 and
  // returned must not be left holding a destroyed mutex/cv. `op` itself can
  // stay by-reference — the loop only exits once every issued task has
  // finished running it.
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    size_t inflight = 0;
    bool failed = false;
    Status first_error;
  };
  auto g = std::make_shared<Gather>();

  size_t next = 0;
  std::unique_lock<std::mutex> lk(g->mu);
  // Stop issuing after the first failure; keep looping only to drain what is
  // already in flight, else the wait below would sleep forever with unissued
  // items still counted by `next < count`.
  while ((next < count && !g->failed) || g->inflight > 0) {
    if (next < count && !g->failed && g->inflight < window) {
      size_t i = next++;
      size_t now_inflight = ++g->inflight;
      if (opts.inflight != nullptr) {
        opts.inflight->Add(1);
      }
      if (opts.inflight_peak != nullptr) {
        // Peak from the locally tracked count (exact under `mu`), not a
        // read-back of the shared gauge that concurrent transfers perturb.
        opts.inflight_peak->Max(static_cast<int64_t>(now_inflight));
      }
      lk.unlock();
      SubmitIo(node, [g, &op, opts, i] {
        Status st = op(i);
        if (opts.inflight != nullptr) {
          opts.inflight->Add(-1);
        }
        std::lock_guard<std::mutex> guard(g->mu);
        --g->inflight;
        if (!st.ok() && !g->failed) {
          g->failed = true;
          g->first_error = st;
        }
        g->cv.notify_all();
      });
      lk.lock();
    } else {
      // Opened at the caller's layer, so it moves no time between layers:
      // the in-flight ops it waits for are charged where they run.
      obs::SpanScope span(obs::CurrentLayer(), m_parallel_wait_us_, "net.parallel_wait", node);
      g->cv.wait(lk);
    }
  }
  return g->failed ? g->first_error : OkStatus();
}

void Network::SetNodeUp(NodeId node, bool up) {
  std::lock_guard<std::mutex> guard(mu_);
  FGP_CHECK(node >= 1 && node <= nodes_.size());
  nodes_[node - 1]->up = up;
}

bool Network::IsNodeUp(NodeId node) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (node < 1 || node > nodes_.size()) {
    return false;
  }
  return nodes_[node - 1]->up;
}

void Network::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  std::lock_guard<std::mutex> guard(mu_);
  auto key = std::minmax(a, b);
  if (partitioned) {
    partitions_.insert({key.first, key.second});
  } else {
    partitions_.erase({key.first, key.second});
  }
}

void Network::SetIsolated(NodeId node, bool isolated) {
  std::lock_guard<std::mutex> guard(mu_);
  FGP_CHECK(node >= 1 && node <= nodes_.size());
  nodes_[node - 1]->isolated = isolated;
}

void Network::SetDropProbability(double p) {
  std::lock_guard<std::mutex> guard(mu_);
  drop_probability_ = p;
}

void Network::SetLinkParams(NodeId node, LinkParams params) {
  std::lock_guard<std::mutex> guard(mu_);
  FGP_CHECK(node >= 1 && node <= nodes_.size());
  nodes_[node - 1]->params = params;
  nodes_[node - 1]->nic->set_rate(params.bandwidth_bps);
}

uint64_t Network::BytesThrough(NodeId node) const {
  std::lock_guard<std::mutex> guard(mu_);
  if (node < 1 || node > nodes_.size()) {
    return 0;
  }
  return nodes_[node - 1]->nic->total_bytes();
}

}  // namespace frangipani
