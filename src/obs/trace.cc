#include "src/obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "src/obs/recorder.h"

namespace frangipani {
namespace obs {

namespace {

thread_local TraceState* g_active = nullptr;
// Layer of the innermost open scope on this thread, traced or not.
thread_local Layer g_layer = Layer::kFs;
// Set by InheritedTraceScope on pool threads; consulted by CurrentTraceId
// when no OpTrace is rooted on this thread.
thread_local uint64_t g_inherited_trace_id = 0;
std::atomic<uint64_t> g_next_trace_id{1};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kFs:
      return "fs";
    case Layer::kLock:
      return "lock";
    case Layer::kWal:
      return "wal";
    case Layer::kPetal:
      return "petal";
    case Layer::kNet:
      return "net";
  }
  return "?";
}

void LockTimed(std::unique_lock<std::mutex>& lk, Histogram* wait_us) {
  if (lk.try_lock()) {
    wait_us->Record(0);
    return;
  }
  int64_t t0 = MonotonicNs();
  lk.lock();
  wait_us->Record(static_cast<double>(MonotonicNs() - t0) * 1e-3);
}

OpMetrics OpMetrics::For(MetricsRegistry* registry, const std::string& op) {
  OpMetrics m;
  m.count = registry->GetCounter("op." + op + ".count");
  m.total_us = registry->GetHistogram("op." + op + ".total_us");
  for (int i = 0; i < kNumLayers; ++i) {
    m.layer_us[i] = registry->GetHistogram(
        "op." + op + "." + LayerName(static_cast<Layer>(i)) + "_us");
  }
  m.name = InternString(op);
  return m;
}

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Layer CurrentLayer() { return g_layer; }

uint64_t CurrentTraceId() {
  return g_active != nullptr ? g_active->trace_id : g_inherited_trace_id;
}

InheritedTraceScope::InheritedTraceScope(uint64_t trace_id)
    : saved_(g_inherited_trace_id) {
  g_inherited_trace_id = trace_id;
}

InheritedTraceScope::~InheritedTraceScope() { g_inherited_trace_id = saved_; }

OpTrace::OpTrace(const OpMetrics* metrics, uint32_t node) : active_(g_active == nullptr) {
  if (!active_) {
    return;
  }
  state_.trace_id = g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
  state_.node = node;
  state_.start_ns = MonotonicNs();
  state_.metrics = metrics;
  g_active = &state_;
  // Time at the root of an op is fs time, whatever scope it was opened in.
  saved_layer_ = g_layer;
  g_layer = Layer::kFs;
}

OpTrace::~OpTrace() {
  if (!active_) {
    return;
  }
  g_active = nullptr;
  g_layer = saved_layer_;
  int64_t total_ns = MonotonicNs() - state_.start_ns;
  const OpMetrics* m = state_.metrics;
  if (RecorderEnabled()) {
    // Root span first, so a slow-op scan below finds it in the ring.
    TraceEvent e;
    e.trace_id = state_.trace_id;
    e.node = state_.node;
    e.layer = Layer::kFs;
    e.name = (m != nullptr && m->name != nullptr) ? m->name : "op";
    e.start_ns = state_.start_ns;
    e.dur_ns = total_ns;
    Recorder* rec = Recorder::Default();
    rec->Emit(e);
    int64_t slow_us = rec->slow_op_us();
    if (slow_us > 0 && total_ns >= slow_us * 1000) {
      rec->PromoteSlowOp(state_.trace_id, e.name, state_.node, state_.start_ns, total_ns);
    }
  }
  // Inner layers subtracted their elapsed time from their parent as they
  // closed; charging the total to kFs leaves it holding exactly the time
  // spent in fs code itself, and makes the layers sum to the total.
  state_.layer_ns[static_cast<int>(Layer::kFs)] += total_ns;
  state_.layer_calls[static_cast<int>(Layer::kFs)] += 1;
  if (m == nullptr) {
    return;
  }
  if (m->count != nullptr) {
    m->count->Increment();
  }
  if (m->total_us != nullptr) {
    m->total_us->Record(static_cast<double>(total_ns) / 1e3);
  }
  for (int i = 0; i < kNumLayers; ++i) {
    if (state_.layer_calls[i] == 0 || m->layer_us[i] == nullptr) {
      continue;
    }
    int64_t ns = std::max<int64_t>(state_.layer_ns[i], 0);
    m->layer_us[i]->Record(static_cast<double>(ns) / 1e3);
  }
}

SpanScope::SpanScope(Layer layer, Histogram* latency_us, const char* name, uint32_t node,
                     const char* a0_name, uint64_t a0, const char* a1_name, uint64_t a1)
    : latency_us_(latency_us),
      trace_(g_active),
      parent_(g_layer),
      armed_(RecorderEnabled()),
      e_{.node = node, .layer = layer, .name = name, .a0_name = a0_name, .a0 = a0,
         .a1_name = a1_name, .a1 = a1} {
  g_layer = layer;
  if (armed_ || trace_ != nullptr || latency_us_ != nullptr) {
    e_.start_ns = MonotonicNs();
  }
}

SpanScope::~SpanScope() {
  g_layer = parent_;
  if (!armed_ && trace_ == nullptr && latency_us_ == nullptr) {
    return;
  }
  int64_t end_ns = MonotonicNs();
  if (armed_) {
    e_.trace_id = CurrentTraceId();
    e_.dur_ns = end_ns - e_.start_ns;
    Recorder::Default()->Emit(e_);
    if (trace_ != nullptr || latency_us_ != nullptr) {
      end_ns = MonotonicNs();  // the layer and the histogram also pay the emit
    }
  }
  int64_t elapsed = end_ns - e_.start_ns;
  if (latency_us_ != nullptr) {
    latency_us_->Record(static_cast<double>(elapsed) / 1e3);
  }
  // trace_ == g_active guards against a trace that ended (or moved threads)
  // while this scope was open.
  if (trace_ != nullptr && trace_ == g_active) {
    trace_->layer_ns[static_cast<int>(e_.layer)] += elapsed;
    trace_->layer_ns[static_cast<int>(parent_)] -= elapsed;
    trace_->layer_calls[static_cast<int>(e_.layer)] += 1;
  }
}

}  // namespace obs
}  // namespace frangipani
