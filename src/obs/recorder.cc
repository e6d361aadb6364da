#include "src/obs/recorder.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <tuple>

namespace frangipani {
namespace obs {

std::atomic<bool> g_recorder_on{false};

const char* InternString(const std::string& s) {
  static std::mutex mu;
  static std::set<std::string>* table = new std::set<std::string>();
  std::lock_guard<std::mutex> guard(mu);
  return table->insert(s).first->c_str();
}

// One thread's circular event buffer. The owning thread is the only writer;
// dumps read concurrently through per-slot seqlocks. Rings are owned by the
// Recorder's registry (shared_ptr) so they outlive their thread.
class EventRing {
 public:
  struct Slot {
    // Even = stable, odd = the owner is mid-write. A reader that observes an
    // odd value, or different values before/after reading the payload, skips
    // the slot (the event is being overwritten — by ring semantics it is the
    // oldest and about to be dropped anyway).
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<int64_t> start_ns{0};
    std::atomic<int64_t> dur_ns{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> a0_name{nullptr};
    std::atomic<uint64_t> a0{0};
    std::atomic<const char*> a1_name{nullptr};
    std::atomic<uint64_t> a1{0};
    // node (32) | layer (8) | kind (8), packed so one load restores all.
    std::atomic<uint64_t> meta{0};
  };

  explicit EventRing(uint32_t tid) : tid_(tid) {}

  uint32_t tid() const { return tid_; }

  // Owner thread only.
  bool Push(const TraceEvent& e) {
    uint64_t pos = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos % Recorder::kRingSlots];
    uint64_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_relaxed);
    // Full fence: the odd seq must be visible before any payload store, or a
    // concurrent reader could pair fresh payload with a stale-stable seq.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    s.trace_id.store(e.trace_id, std::memory_order_relaxed);
    s.start_ns.store(e.start_ns, std::memory_order_relaxed);
    s.dur_ns.store(e.dur_ns, std::memory_order_relaxed);
    s.name.store(e.name, std::memory_order_relaxed);
    s.a0_name.store(e.a0_name, std::memory_order_relaxed);
    s.a0.store(e.a0, std::memory_order_relaxed);
    s.a1_name.store(e.a1_name, std::memory_order_relaxed);
    s.a1.store(e.a1, std::memory_order_relaxed);
    s.meta.store(PackMeta(e), std::memory_order_relaxed);
    s.seq.store(seq0 + 2, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_release);
    return pos >= Recorder::kRingSlots;  // true = an older event was overwritten
  }

  // Any thread. Appends the stable events currently in the ring.
  void Collect(std::vector<TraceEvent>* out) const {
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t first = head > Recorder::kRingSlots ? head - Recorder::kRingSlots : 0;
    for (uint64_t pos = first; pos < head; ++pos) {
      const Slot& s = slots_[pos % Recorder::kRingSlots];
      uint64_t s1 = s.seq.load(std::memory_order_acquire);
      if (s1 & 1) {
        continue;
      }
      TraceEvent e;
      e.trace_id = s.trace_id.load(std::memory_order_relaxed);
      e.start_ns = s.start_ns.load(std::memory_order_relaxed);
      e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      e.name = s.name.load(std::memory_order_relaxed);
      e.a0_name = s.a0_name.load(std::memory_order_relaxed);
      e.a0 = s.a0.load(std::memory_order_relaxed);
      e.a1_name = s.a1_name.load(std::memory_order_relaxed);
      e.a1 = s.a1.load(std::memory_order_relaxed);
      UnpackMeta(s.meta.load(std::memory_order_relaxed), &e);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != s1 || e.name == nullptr) {
        continue;  // overwritten while reading (or never written)
      }
      e.tid = tid_;
      out->push_back(e);
    }
  }

  // Owner-thread-free contexts only (Clear under the registry mutex, with
  // the caveat that a racing emitter may immediately repopulate).
  void Reset() { head_.store(0, std::memory_order_release); }

  uint64_t head() const { return head_.load(std::memory_order_acquire); }

 private:
  static uint64_t PackMeta(const TraceEvent& e) {
    return (static_cast<uint64_t>(e.node) << 16) |
           (static_cast<uint64_t>(static_cast<uint8_t>(e.layer)) << 8) |
           static_cast<uint64_t>(static_cast<uint8_t>(e.kind));
  }
  static void UnpackMeta(uint64_t m, TraceEvent* e) {
    e->node = static_cast<uint32_t>(m >> 16);
    e->layer = static_cast<Layer>(static_cast<uint8_t>(m >> 8));
    e->kind = static_cast<EventKind>(static_cast<uint8_t>(m));
  }

  uint32_t tid_;
  std::atomic<uint64_t> head_{0};
  std::array<Slot, Recorder::kRingSlots> slots_{};
};

// Ring handle for the current thread. Shared ownership: the ring stays alive
// while either this thread or the recorder's registry holds it, so a
// concurrent Clear() can never free a ring out from under its writer. The
// holder retires the ring at thread exit so dumps keep seeing its events
// (bounded; see RetireRing).
struct RingHolder {
  std::shared_ptr<EventRing> ring;
  Recorder* owner = nullptr;
  uint64_t gen = 0;
  ~RingHolder() {
    if (ring != nullptr && owner != nullptr) {
      owner->RetireRing(ring);
    }
  }
};

namespace {
thread_local RingHolder t_ring_holder;
}  // namespace

Recorder::Recorder() {
  MetricsRegistry* reg = MetricsRegistry::Default();
  m_events_ = reg->GetCounter("obs.events");
  m_dropped_ = reg->GetCounter("obs.dropped_events");
  m_slow_ops_ = reg->GetCounter("obs.slow_ops");
}

Recorder* Recorder::Default() {
  static Recorder* r = new Recorder();
  return r;
}

void Recorder::Enable(bool on) { g_recorder_on.store(on, std::memory_order_relaxed); }

EventRing* Recorder::RingForThisThread() {
  uint64_t gen = clear_gen_.load(std::memory_order_acquire);
  if (t_ring_holder.ring != nullptr && t_ring_holder.owner == this &&
      t_ring_holder.gen == gen) {
    return t_ring_holder.ring.get();
  }
  std::lock_guard<std::mutex> guard(mu_);
  auto ring = std::make_shared<EventRing>(next_tid_++);
  rings_.push_back(ring);
  // Drops any pre-Clear ring this thread still held (registry reference is
  // already gone, so the shared_ptr release frees it).
  t_ring_holder.ring = ring;
  t_ring_holder.owner = this;
  t_ring_holder.gen = clear_gen_.load(std::memory_order_relaxed);
  return ring.get();
}

void Recorder::RetireRing(const std::shared_ptr<EventRing>& ring) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = std::find(rings_.begin(), rings_.end(), ring);
  if (it == rings_.end()) {
    return;  // Clear() already dropped it
  }
  rings_.erase(it);
  retired_.push_back(ring);
  // Bound memory across many short-lived threads: drop the oldest retired
  // rings beyond the cap, counting their events as dropped.
  while (retired_.size() > kMaxRetiredRings) {
    m_dropped_->Increment(
        std::min<uint64_t>(retired_.front()->head(), kRingSlots));
    retired_.pop_front();
  }
}

void Recorder::Emit(const TraceEvent& event) {
  TraceEvent e = event;
  if (e.start_ns == 0) {
    e.start_ns = MonotonicNs();
  }
  m_events_->Increment();
  if (RingForThisThread()->Push(e)) {
    m_dropped_->Increment();
  }
}

namespace {
bool SameOp(const char* a, const char* b) {
  return a == b || (a != nullptr && b != nullptr && std::strcmp(a, b) == 0);
}
}  // namespace

void Recorder::PromoteSlowOp(uint64_t trace_id, const char* op, uint32_t node,
                             int64_t start_ns, int64_t total_ns) {
  m_slow_ops_->Increment();
  SlowOp slow;
  slow.trace_id = trace_id;
  slow.op = op;
  slow.node = node;
  slow.start_ns = start_ns;
  slow.total_ns = total_ns;
  for (const TraceEvent& e : Snapshot()) {
    if (e.trace_id == trace_id && slow.events.size() < kMaxSlowOpEvents) {
      slow.events.push_back(e);
    }
  }
  std::lock_guard<std::mutex> guard(mu_);
  slow_ops_.push_back(std::move(slow));
  if (slow_ops_.size() <= kMaxSlowOps) {
    return;
  }
  // Over the bound: drop the fastest op that some other kept op of the same
  // name outlasts (every name keeps its slowest), or the fastest overall if
  // each kept op is the only one of its name.
  auto outlasted = [&](const SlowOp& s) {
    return std::any_of(slow_ops_.begin(), slow_ops_.end(), [&](const SlowOp& t) {
      return &t != &s && SameOp(t.op, s.op) && t.total_ns >= s.total_ns;
    });
  };
  auto victim = slow_ops_.end();
  for (auto it = slow_ops_.begin(); it != slow_ops_.end(); ++it) {
    if (outlasted(*it) && (victim == slow_ops_.end() || it->total_ns < victim->total_ns)) {
      victim = it;
    }
  }
  if (victim == slow_ops_.end()) {
    victim = std::min_element(
        slow_ops_.begin(), slow_ops_.end(),
        [](const SlowOp& a, const SlowOp& b) { return a.total_ns < b.total_ns; });
  }
  slow_ops_.erase(victim);
}

std::vector<TraceEvent> Recorder::Snapshot() const {
  std::vector<std::shared_ptr<EventRing>> rings;
  {
    std::lock_guard<std::mutex> guard(mu_);
    rings = rings_;
    rings.insert(rings.end(), retired_.begin(), retired_.end());
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    ring->Collect(&out);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.start_ns < b.start_ns; });
  return out;
}

std::vector<Recorder::SlowOp> Recorder::SlowOps() const {
  std::lock_guard<std::mutex> guard(mu_);
  return {slow_ops_.begin(), slow_ops_.end()};
}

void Recorder::SetNodeName(uint32_t node, const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  node_names_[node] = name;
}

void Recorder::Clear() {
  std::lock_guard<std::mutex> guard(mu_);
  // Live rings owned by racing threads cannot be reset safely from here;
  // dropping the registry reference is enough — the generation bump makes
  // their owners allocate fresh rings on the next emit, and the old rings
  // die when the last holder releases them (RetireRing finds nothing).
  clear_gen_.fetch_add(1, std::memory_order_acq_rel);
  rings_.clear();
  retired_.clear();
  slow_ops_.clear();
}

size_t Recorder::ring_count() const {
  std::lock_guard<std::mutex> guard(mu_);
  return rings_.size() + retired_.size();
}

void RecordSpan(Layer layer, const char* name, uint32_t node, int64_t start_ns, int64_t end_ns) {
  if (!RecorderEnabled()) {
    return;
  }
  TraceEvent e;
  e.layer = layer;
  e.name = name;
  e.node = node;
  e.trace_id = CurrentTraceId();
  e.start_ns = start_ns;
  e.dur_ns = end_ns - start_ns;
  Recorder::Default()->Emit(e);
}

void RecordInstant(Layer layer, const char* name, uint32_t node, const char* a0_name,
                   uint64_t a0, const char* a1_name, uint64_t a1) {
  if (!RecorderEnabled()) {
    return;
  }
  TraceEvent e;
  e.layer = layer;
  e.kind = EventKind::kInstant;
  e.name = name;
  e.node = node;
  e.a0_name = a0_name;
  e.a0 = a0;
  e.a1_name = a1_name;
  e.a1 = a1;
  e.trace_id = CurrentTraceId();
  e.start_ns = MonotonicNs();
  Recorder::Default()->Emit(e);
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendEventJson(std::ostringstream& out, const TraceEvent& e, bool* first) {
  if (!*first) {
    out << ",\n";
  }
  *first = false;
  char buf[64];
  out << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\"" << LayerName(e.layer)
      << "\",\"pid\":" << e.node << ",\"tid\":" << e.tid;
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(e.start_ns) / 1e3);
  out << ",\"ts\":" << buf;
  if (e.kind == EventKind::kSpan) {
    std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(e.dur_ns) / 1e3);
    out << ",\"ph\":\"X\",\"dur\":" << buf;
  } else {
    out << ",\"ph\":\"i\",\"s\":\"t\"";
  }
  out << ",\"args\":{\"trace\":" << e.trace_id;
  if (e.a0_name != nullptr) {
    out << ",\"" << JsonEscape(e.a0_name) << "\":" << e.a0;
  }
  if (e.a1_name != nullptr) {
    out << ",\"" << JsonEscape(e.a1_name) << "\":" << e.a1;
  }
  out << "}}";
}

}  // namespace

std::string Recorder::DumpJson() const {
  std::vector<TraceEvent> events = Snapshot();
  std::vector<SlowOp> slow = SlowOps();
  std::map<uint32_t, std::string> names;
  {
    std::lock_guard<std::mutex> guard(mu_);
    names = node_names_;
  }

  // Merge kept slow-op events, skipping ones still live in the rings.
  std::set<std::tuple<uint32_t, int64_t, const char*, int64_t>> seen;
  for (const TraceEvent& e : events) {
    seen.insert({e.tid, e.start_ns, e.name, e.dur_ns});
  }
  for (const SlowOp& s : slow) {
    for (const TraceEvent& e : s.events) {
      if (seen.insert({e.tid, e.start_ns, e.name, e.dur_ns}).second) {
        events.push_back(e);
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.start_ns < b.start_ns; });

  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  // Process (= node) and thread metadata rows.
  std::set<uint32_t> nodes;
  std::set<std::pair<uint32_t, uint32_t>> tracks;
  for (const TraceEvent& e : events) {
    nodes.insert(e.node);
    tracks.insert({e.node, e.tid});
  }
  for (uint32_t node : nodes) {
    std::string name = "node " + std::to_string(node);
    auto it = names.find(node);
    if (it != names.end()) {
      name = it->second + " (n" + std::to_string(node) + ")";
    } else if (node == 0) {
      name = "unattributed";
    }
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << node << ",\"name\":\"process_name\",\"args\":{\"name\":\""
        << JsonEscape(name) << "\"}}";
    out << ",\n{\"ph\":\"M\",\"pid\":" << node
        << ",\"name\":\"process_sort_index\",\"args\":{\"sort_index\":" << node << "}}";
  }
  for (const auto& [node, tid] : tracks) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << node << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"thread " << tid << "\"}}";
  }
  for (const TraceEvent& e : events) {
    AppendEventJson(out, e, &first);
  }
  out << "\n]}";
  return out.str();
}

std::string Recorder::SlowestOpSummary() const {
  std::vector<SlowOp> per_name = SlowestOpPerName();
  return per_name.empty() ? "" : SlowOpTree(per_name.front());
}

std::vector<Recorder::SlowOp> Recorder::SlowestOpPerName() const {
  std::vector<SlowOp> out;
  for (SlowOp& s : SlowOps()) {
    auto same =
        std::find_if(out.begin(), out.end(), [&](const SlowOp& t) { return SameOp(t.op, s.op); });
    if (same == out.end()) {
      out.push_back(std::move(s));
    } else if (s.total_ns > same->total_ns) {
      *same = std::move(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SlowOp& a, const SlowOp& b) { return a.total_ns > b.total_ns; });
  return out;
}

std::string Recorder::SlowOpTree(const SlowOp& op) {
  const SlowOp* worst = &op;
  // Sort spans into a containment tree on the timeline: start ascending,
  // longer-first on ties, so a parent always precedes its children.
  std::vector<TraceEvent> evs = worst->events;
  std::sort(evs.begin(), evs.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_ns != b.start_ns) {
      return a.start_ns < b.start_ns;
    }
    return a.dur_ns > b.dur_ns;
  });
  struct NodeRec {
    size_t ev;
    int parent;  // index into tree, -1 = root level
    int depth;
  };
  std::vector<NodeRec> tree;
  std::vector<int> stack;  // indices into tree
  auto end_of = [&](int t) {
    const TraceEvent& e = evs[tree[t].ev];
    return e.start_ns + e.dur_ns;
  };
  for (size_t i = 0; i < evs.size(); ++i) {
    while (!stack.empty() && end_of(stack.back()) <= evs[i].start_ns) {
      stack.pop_back();
    }
    NodeRec n;
    n.ev = i;
    n.parent = stack.empty() ? -1 : stack.back();
    n.depth = static_cast<int>(stack.size());
    tree.push_back(n);
    if (evs[i].kind == EventKind::kSpan) {
      stack.push_back(static_cast<int>(tree.size()) - 1);
    }
  }
  // Critical path: from each node, the longest direct child; walk from the
  // longest root.
  std::vector<int> longest_child(tree.size(), -1);
  int root = -1;
  for (size_t t = 0; t < tree.size(); ++t) {
    int p = tree[t].parent;
    const TraceEvent& e = evs[tree[t].ev];
    if (p == -1) {
      if (root == -1 || e.dur_ns > evs[tree[root].ev].dur_ns) {
        root = static_cast<int>(t);
      }
    } else if (longest_child[p] == -1 || e.dur_ns > evs[tree[longest_child[p]].ev].dur_ns) {
      longest_child[p] = static_cast<int>(t);
    }
  }
  std::vector<bool> on_path(tree.size(), false);
  for (int t = root; t != -1; t = longest_child[t]) {
    on_path[t] = true;
  }

  std::ostringstream out;
  out << "slowest op: " << (worst->op != nullptr ? worst->op : "?") << " trace "
      << worst->trace_id << " node " << worst->node << " total "
      << worst->total_ns / 1000 << " us (" << evs.size() << " events; * = critical path)\n";
  for (size_t t = 0; t < tree.size(); ++t) {
    const TraceEvent& e = evs[tree[t].ev];
    out << (on_path[t] ? " *" : "  ");
    for (int d = 0; d < tree[t].depth; ++d) {
      out << "  ";
    }
    out << e.name << " [" << LayerName(e.layer) << "] n" << e.node;
    if (e.kind == EventKind::kSpan) {
      out << " " << e.dur_ns / 1000 << "us";
    } else {
      out << " (instant)";
    }
    if (e.a0_name != nullptr) {
      out << " " << e.a0_name << "=" << e.a0;
    }
    if (e.a1_name != nullptr) {
      out << " " << e.a1_name << "=" << e.a1;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace obs
}  // namespace frangipani
