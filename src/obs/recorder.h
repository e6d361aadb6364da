// Cluster flight recorder: lock-free per-thread ring buffers of structured
// span/instant events, exportable as Chrome-trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Design:
//  - Each emitting thread owns one EventRing (fixed 4096 slots, allocated on
//    first emit). Emit writes only thread-local slots plus two relaxed atomic
//    bumps, so recording never takes a lock and never blocks another thread.
//  - Overwrite-oldest semantics: the ring is circular; once a thread has
//    emitted kSlots events, every further emit overwrites that thread's
//    oldest event and increments the `obs.dropped_events` counter. A dump
//    therefore shows the *most recent* window of activity per thread, not
//    the whole run. Slots use a seqlock (odd = mid-write) so a concurrent
//    dump skips, rather than tears, the slot being overwritten.
//  - Disabled path: every instrumentation site is gated on RecorderEnabled(),
//    a single relaxed atomic load. No ring is allocated, no clock is read,
//    and no event is constructed while the recorder is off.
//  - Slow-op capture: when an OpTrace completes above the configured
//    threshold (Recorder::set_slow_op_us), its full span tree — every ring
//    event carrying that trace id, including spans emitted by IO-pool
//    threads that inherited the id — is copied into a bounded keep-list
//    (kMaxSlowOps entries). When it is full, the fastest op that is not the
//    slowest kept op of its name is dropped, so every op name keeps its
//    slowest capture however many of another name arrive. Kept ops survive
//    later ring overwrites and are merged into DumpJson; `obs.slow_ops`
//    counts promotions.
//  - Exited threads retire their ring instead of freeing it, so a dump still
//    sees their events; at most kMaxRetiredRings retired rings are kept
//    (oldest dropped, counted as dropped events).
#ifndef SRC_OBS_RECORDER_H_
#define SRC_OBS_RECORDER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace frangipani {
namespace obs {

// Process-wide recorder on/off flag. Read inline by every instrumentation
// site: the entire cost of a disabled site is this one relaxed load.
extern std::atomic<bool> g_recorder_on;
inline bool RecorderEnabled() { return g_recorder_on.load(std::memory_order_relaxed); }

// Interns `s` into a process-lifetime string table and returns a stable
// C-string pointer. Event names must be interned (or string literals) so
// ring slots can hold raw pointers.
const char* InternString(const std::string& s);

enum class EventKind : uint8_t { kSpan = 0, kInstant = 1 };

// One recorded event. `name` and the arg names must point at storage with
// process lifetime (string literals or InternString results). Args are
// numeric by design (lock ids, chunk indices, byte counts); 0-valued arg
// names mark the arg as absent.
struct TraceEvent {
  uint64_t trace_id = 0;
  uint32_t node = 0;  // originating simulated machine; 0 = unattributed
  uint32_t tid = 0;   // recorder-assigned emitting-thread index
  Layer layer = Layer::kFs;
  EventKind kind = EventKind::kSpan;
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;  // 0 for instants
  const char* a0_name = nullptr;
  uint64_t a0 = 0;
  const char* a1_name = nullptr;
  uint64_t a1 = 0;
};

class EventRing;

class Recorder {
 public:
  static constexpr size_t kRingSlots = 4096;    // events kept per thread
  static constexpr size_t kMaxSlowOps = 32;     // slow-op keep-list bound
  static constexpr size_t kMaxSlowOpEvents = 1024;  // spans kept per slow op
  static constexpr size_t kMaxRetiredRings = 64;

  // A slow op promoted to the keep-list: the root op plus every event that
  // carried its trace id at promotion time.
  struct SlowOp {
    uint64_t trace_id = 0;
    const char* op = nullptr;
    uint32_t node = 0;
    int64_t start_ns = 0;
    int64_t total_ns = 0;
    std::vector<TraceEvent> events;
  };

  // Process-wide instance used by all runtime layers (like
  // MetricsRegistry::Default).
  static Recorder* Default();

  Recorder();

  // Turns recording on/off (affects future emits only; existing ring
  // contents and kept slow ops are preserved until Clear()).
  void Enable(bool on);

  // Ops slower than this are promoted to the keep-list; 0 disables slow-op
  // capture. Thread-safe.
  void set_slow_op_us(int64_t us) { slow_op_us_.store(us, std::memory_order_relaxed); }
  int64_t slow_op_us() const { return slow_op_us_.load(std::memory_order_relaxed); }

  // Appends one event to the calling thread's ring (overwriting its oldest
  // if full). Callers gate on RecorderEnabled() themselves; Emit assumes the
  // recorder is on.
  void Emit(const TraceEvent& event);

  // Called by OpTrace when an op finishes above the slow threshold: scans
  // all rings for events with `trace_id` and copies them into the keep-list.
  // Cold path (slow ops are rare by definition).
  void PromoteSlowOp(uint64_t trace_id, const char* op, uint32_t node, int64_t start_ns,
                     int64_t total_ns);

  // Copies every live ring event (racing emitters may be skipped for the
  // one slot they are mid-write in), sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  std::vector<SlowOp> SlowOps() const;

  // Chrome trace-event JSON: one "process" row per node (named via
  // SetNodeName), one track per emitting thread, spans as "X" complete
  // events with trace id + args, instants as "i". Ring events and kept
  // slow-op events are merged and deduplicated. Load the output in
  // https://ui.perfetto.dev or chrome://tracing.
  std::string DumpJson() const;

  // Indented span tree of the slowest kept op with its critical path marked
  // ("*" = the longest child at each nesting level). Empty string when no
  // slow op has been captured.
  std::string SlowestOpSummary() const;
  // The slowest kept op of each op name, slowest first.
  std::vector<SlowOp> SlowestOpPerName() const;
  // SlowestOpSummary's span tree for one kept op.
  static std::string SlowOpTree(const SlowOp& op);

  // Names the Perfetto process row for a node id (Network::AddNode wires
  // this automatically).
  void SetNodeName(uint32_t node, const std::string& name);

  // Drops all ring contents, retired rings, and kept slow ops. Counters are
  // not reset (they live in the metrics registry).
  void Clear();

  // Number of rings ever created (live + retired); exposed for tests
  // asserting the disabled path allocates nothing.
  size_t ring_count() const;

 private:
  friend class EventRing;
  friend struct RingHolder;

  EventRing* RingForThisThread();
  void RetireRing(const std::shared_ptr<EventRing>& ring);

  std::atomic<int64_t> slow_op_us_{0};
  // Bumped by Clear(); a thread whose cached ring predates the current
  // generation re-registers a fresh one on its next emit.
  std::atomic<uint64_t> clear_gen_{0};

  mutable std::mutex mu_;  // ring registries, slow list, node names
  std::vector<std::shared_ptr<EventRing>> rings_;    // owned by live threads
  std::deque<std::shared_ptr<EventRing>> retired_;   // owners exited
  uint32_t next_tid_ = 1;
  std::deque<SlowOp> slow_ops_;
  std::map<uint32_t, std::string> node_names_;

  Counter* m_events_;
  Counter* m_dropped_;
  Counter* m_slow_ops_;
};

// The one instrumentation scope (trace.h has the attribution rule). It feeds
// `latency_us` (microseconds) if given, traced or not; charges its elapsed
// time exclusively to `layer` in the OpTrace active on this thread; and,
// with the recorder on, emits one kSpan event whose trace id is sampled at
// close, so spans on IO-pool threads join the submitting op. The histogram
// and the layer charge include the emit. With none of the three to do, it
// reads no clock.
class SpanScope {
 public:
  SpanScope(Layer layer, const char* name, uint32_t node = 0, const char* a0_name = nullptr,
            uint64_t a0 = 0, const char* a1_name = nullptr, uint64_t a1 = 0)
      : SpanScope(layer, nullptr, name, node, a0_name, a0, a1_name, a1) {}
  SpanScope(Layer layer, Histogram* latency_us, const char* name, uint32_t node = 0,
            const char* a0_name = nullptr, uint64_t a0 = 0, const char* a1_name = nullptr,
            uint64_t a1 = 0);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Late-bound args for values only known mid-span (e.g. byte counts).
  void arg0(const char* name, uint64_t v) {
    e_.a0_name = name;
    e_.a0 = v;
  }
  void arg1(const char* name, uint64_t v) {
    e_.a1_name = name;
    e_.a1 = v;
  }

 private:
  Histogram* latency_us_;
  TraceState* trace_;  // op charged for the elapsed time, or null
  Layer parent_;       // CurrentLayer() when the scope opened
  bool armed_;         // recorder on at open: emit the span at close
  TraceEvent e_;
};

// Blocks on `cv` until `done()` holds; if it has to wait at all, the wait is
// one span.
template <typename Pred>
void WaitAsSpan(std::condition_variable& cv, std::unique_lock<std::mutex>& lk, Pred done,
                Layer layer, const char* name, uint32_t node = 0, const char* a0_name = nullptr,
                uint64_t a0 = 0) {
  if (!done()) {
    SpanScope span(layer, name, node, a0_name, a0);
    cv.wait(lk, done);
  }
}

// Emits a span measured by the caller, e.g. a wait that began on another
// thread; a no-op while the recorder is off.
void RecordSpan(Layer layer, const char* name, uint32_t node, int64_t start_ns, int64_t end_ns);

// Emits a zero-duration instant event (grant applied, partial revoke, ...);
// a no-op while the recorder is off.
void RecordInstant(Layer layer, const char* name, uint32_t node = 0,
                   const char* a0_name = nullptr, uint64_t a0 = 0,
                   const char* a1_name = nullptr, uint64_t a1 = 0);

}  // namespace obs
}  // namespace frangipani

#endif  // SRC_OBS_RECORDER_H_
