// Cross-layer op tracing.
//
// The simulated Network runs RPC handlers on the caller's thread, so a
// thread-local trace context set at the top of a FrangipaniFs op is visible
// all the way down through the lock clerk, the lock server's handler, WAL
// flushes, PetalClient, the Petal server's handler, and Network::Transmit —
// no explicit plumbing through call signatures.
//
// OpTrace is the RAII root span: it stamps a trace id, times the whole op,
// and on destruction records the total plus a per-layer breakdown into the
// op's metrics. obs::SpanScope (recorder.h) is the one inner scope: each
// instrumented interval opens exactly one, and it feeds the interval's
// latency histogram, charges the op's layers and emits the flight-recorder
// span. Attribution is *exclusive*, and the rule is that a scope's own time
// belongs to its layer: a scope adds its elapsed time to its own layer and
// subtracts it from the enclosing layer, so when the root closes the
// per-layer times sum exactly to the op total (kFs holds the remainder). A
// scope that must move no time (the whole-RPC span) opens at CurrentLayer().
// So fs work run inside a revoke (fs.revoke_flush, fs.range_revoke_flush,
// fs.decommit.revoke_wait) is fs time, not lock time, and so is a block-cache
// wait in the write-back that the log's reclaim runs inside wal.force.
//
// Work on threads other than the op's (prefetch pool, background flush
// demons) simply carries no trace context and is not attributed; that is
// deliberate — the breakdown answers "where did *this call's* latency go".
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/obs/metrics.h"

namespace frangipani {
namespace obs {

enum class Layer { kFs = 0, kLock, kWal, kPetal, kNet };
inline constexpr int kNumLayers = 5;

const char* LayerName(Layer layer);

// Pre-resolved metric handles for one op name, so OpTrace's destructor never
// touches the registry mutex. Metric names are global (shared across fs
// instances): op.<op>.count, op.<op>.total_us, op.<op>.<layer>_us.
struct OpMetrics {
  Counter* count = nullptr;
  Histogram* total_us = nullptr;
  Histogram* layer_us[kNumLayers] = {};
  // Interned op name ("create", "read", ...), used as the root span's name
  // in the flight recorder.
  const char* name = nullptr;

  static OpMetrics For(MetricsRegistry* registry, const std::string& op);
};

struct TraceState {
  uint64_t trace_id = 0;
  uint32_t node = 0;  // simulated machine running the op (0 = unattributed)
  int64_t start_ns = 0;
  int64_t layer_ns[kNumLayers] = {};
  uint64_t layer_calls[kNumLayers] = {};
  const OpMetrics* metrics = nullptr;
};

// Monotonic clock for span timing. The simulator models network / disk
// delays with real sleeps, so wall time is the right measure.
int64_t MonotonicNs();

// Layer of the innermost scope open on this thread (kFs outside any scope,
// and at the root of an op). A scope opened at this layer moves no time
// between layers.
Layer CurrentLayer();

// Trace id of the op active on this thread: the OpTrace rooted here, or the
// id inherited from the submitting op (InheritedTraceScope) on pool threads;
// 0 if neither. Used by the flight recorder to parent spans and by
// FLOG-style diagnostics to correlate lines with an op.
uint64_t CurrentTraceId();

// Carries a trace id onto a worker thread for the duration of a scope, so
// spans emitted by IO-pool / prefetch work appear as children of the
// submitting op in the flight recorder. Deliberately does NOT create a
// TraceState: scopes on the worker charge no op, so per-op layer breakdowns
// keep answering "where did this call's latency go". Nests by save/restore,
// so chained submits are safe.
class InheritedTraceScope {
 public:
  explicit InheritedTraceScope(uint64_t trace_id);
  ~InheritedTraceScope();

  InheritedTraceScope(const InheritedTraceScope&) = delete;
  InheritedTraceScope& operator=(const InheritedTraceScope&) = delete;

 private:
  uint64_t saved_;
};

class OpTrace {
 public:
  // `node` is the simulated machine running the op; it tags the root span
  // and slow-op captures in the flight recorder.
  explicit OpTrace(const OpMetrics* metrics, uint32_t node = 0);
  ~OpTrace();

  OpTrace(const OpTrace&) = delete;
  OpTrace& operator=(const OpTrace&) = delete;

  // False when another OpTrace is already active on this thread (nested
  // public ops, e.g. Stat calling the shared StatIno path) — the inner
  // trace is a no-op and the outer one keeps accumulating.
  bool active() const { return active_; }

 private:
  bool active_;
  Layer saved_layer_ = Layer::kFs;
  TraceState state_;
};

// Acquires a deferred unique_lock, recording the time spent blocked on the
// mutex into `wait_us` (microseconds). The uncontended path is one try_lock
// and a zero record — cheap enough for per-operation shard locks. This is
// how the sharded stores (petal.store_wait_us, fs.cache.shard_wait_us)
// expose their contention.
void LockTimed(std::unique_lock<std::mutex>& lk, Histogram* wait_us);

}  // namespace obs
}  // namespace frangipani

#endif  // SRC_OBS_TRACE_H_
