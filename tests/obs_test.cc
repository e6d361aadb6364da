// Observability layer: metrics registry, histograms under concurrency,
// trace spans, and the cross-layer propagation through a real FS op.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/server/cluster.h"

namespace frangipani {
namespace {

using obs::Counter;
using obs::Layer;
using obs::MetricsRegistry;
using obs::OpMetrics;
using obs::OpTrace;
using obs::SpanScope;

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y.count"), a);
  EXPECT_EQ(reg.GetHistogram("x.us"), reg.GetHistogram("x.us"));
  EXPECT_EQ(reg.GetGauge("x.g"), reg.GetGauge("x.g"));
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("c");
  Histogram* h = reg.GetHistogram("h");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kPerThread);
  // Sum and max use CAS loops, so they are exact too.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum = expected_sum + static_cast<double>(t + 1) * kPerThread;
  }
  EXPECT_DOUBLE_EQ(h->Sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h->Max(), kThreads);
}

TEST(HistogramTest, QuantileAccuracy) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(i);
  }
  // Log buckets with 32 sub-buckets per octave: relative error < ~3%.
  EXPECT_NEAR(h.Percentile(0.5), 5000, 5000 * 0.04);
  EXPECT_NEAR(h.Percentile(0.9), 9000, 9000 * 0.04);
  EXPECT_NEAR(h.Percentile(0.99), 9900, 9900 * 0.04);
  EXPECT_DOUBLE_EQ(h.Max(), 10000);
  EXPECT_LE(h.Percentile(1.0), h.Max());
  // Values spanning many octaves, including sub-1.0.
  Histogram wide;
  wide.Record(0.001);
  wide.Record(1000000);
  EXPECT_NEAR(wide.Percentile(0.0), 0.001, 0.001 * 0.05);
  EXPECT_DOUBLE_EQ(wide.Max(), 1000000);
}

TEST(MetricsRegistryTest, JsonExportRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("fs.ops")->Increment(42);
  reg.GetGauge("cache.bytes")->Set(-7);
  Histogram* h = reg.GetHistogram("op.read.total_us");
  for (int i = 1; i <= 100; ++i) {
    h->Record(i);
  }
  std::string json = reg.ExportJson();
  // Structural sanity: one top-level object with the three sections.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  // Values survive the trip.
  EXPECT_NE(json.find("\"fs.ops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cache.bytes\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"op.read.total_us\":{\"count\":100,\"sum\":5050,\"mean\":50.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
  // Balanced braces (no truncation).
  int depth = 0;
  for (char ch : json) {
    depth += (ch == '{') - (ch == '}');
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // ResetAll zeroes but keeps handles valid.
  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("fs.ops")->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(TraceTest, NestedOpTraceIsPassthrough) {
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  MetricsRegistry reg;
  OpMetrics outer_m = OpMetrics::For(&reg, "outer");
  OpMetrics inner_m = OpMetrics::For(&reg, "inner");
  uint64_t first_id = 0;
  {
    OpTrace outer(&outer_m);
    EXPECT_TRUE(outer.active());
    first_id = obs::CurrentTraceId();
    EXPECT_NE(first_id, 0u);
    {
      OpTrace inner(&inner_m);
      EXPECT_FALSE(inner.active());
      // The outer trace stays current.
      EXPECT_EQ(obs::CurrentTraceId(), first_id);
    }
    EXPECT_EQ(obs::CurrentTraceId(), first_id);
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  // Only the outer op recorded; the nested one was a no-op.
  EXPECT_EQ(outer_m.count->value(), 1u);
  EXPECT_EQ(outer_m.total_us->count(), 1u);
  EXPECT_EQ(inner_m.count->value(), 0u);

  // Distinct ops get distinct trace ids.
  OpTrace next(&outer_m);
  EXPECT_NE(obs::CurrentTraceId(), first_id);
}

constexpr int kFsIdx = static_cast<int>(Layer::kFs);
constexpr int kLockIdx = static_cast<int>(Layer::kLock);
constexpr int kPetalIdx = static_cast<int>(Layer::kPetal);
constexpr int kNetIdx = static_cast<int>(Layer::kNet);

TEST(TraceTest, ScopesAttributeExclusiveTime) {
  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "op");
  {
    OpTrace trace(&m);
    SpanScope lock_scope(Layer::kLock, "test.lock");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    {
      SpanScope petal_scope(Layer::kPetal, "test.petal");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_EQ(m.total_us->count(), 1u);
  ASSERT_EQ(m.layer_us[kLockIdx]->count(), 1u);
  ASSERT_EQ(m.layer_us[kPetalIdx]->count(), 1u);
  ASSERT_EQ(m.layer_us[kFsIdx]->count(), 1u);
  double total = m.total_us->Mean();
  double lock_us = m.layer_us[kLockIdx]->Mean();
  double petal_us = m.layer_us[kPetalIdx]->Mean();
  double fs_us = m.layer_us[kFsIdx]->Mean();
  // Exclusive attribution: the nested petal sleep is not double-counted
  // into the lock layer, and kFs holds only the (tiny) remainder.
  EXPECT_GE(total, 8000);
  EXPECT_GE(petal_us, 4000);
  EXPECT_GE(lock_us, 2000);
  EXPECT_LT(lock_us, total - petal_us + 1000);
  EXPECT_GE(fs_us, 0);
  // Layer times sum to the total (same measured intervals, by construction;
  // allow slack for bucket quantization in the histograms).
  EXPECT_NEAR(lock_us + petal_us + fs_us, total, total * 0.1 + 50);
}

// A scope's own time belongs to its layer, even when it nests back into a
// layer further up: a kFs scope inside a kLock scope (an fs flush run by a
// revoke) takes its time out of kLock and back into kFs.
TEST(TraceTest, FsScopeInsideLockScopeChargesFs) {
  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "op");
  {
    OpTrace trace(&m);
    SpanScope lock_scope(Layer::kLock, "test.revoke");
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    {
      SpanScope fs_scope(Layer::kFs, "test.revoke_flush");
      std::this_thread::sleep_for(std::chrono::milliseconds(6));
    }
  }
  ASSERT_EQ(m.total_us->count(), 1u);
  ASSERT_EQ(m.layer_us[kLockIdx]->count(), 1u);
  ASSERT_EQ(m.layer_us[kFsIdx]->count(), 1u);
  double total = m.total_us->Mean();
  double lock_us = m.layer_us[kLockIdx]->Mean();
  double fs_us = m.layer_us[kFsIdx]->Mean();
  EXPECT_GE(total, 9000);
  EXPECT_GE(fs_us, 5000);  // the nested 6 ms sleep is fs time, not lock time
  EXPECT_GE(lock_us, 2000);
  EXPECT_NEAR(lock_us + fs_us, total, total * 0.1 + 50);
}

TEST(TraceTest, ScopeWithoutTraceStillFeedsHistogram) {
  MetricsRegistry reg;
  Histogram* lat = reg.GetHistogram("lat_us");
  ASSERT_FALSE(obs::RecorderEnabled());
  {
    SpanScope scope(Layer::kPetal, lat, "test.untraced");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(lat->count(), 1u);
  EXPECT_GE(lat->Mean(), 1000);
}

// Only wire time is kNet: an RPC handler that sleeps outside any scope is
// charged to the caller's layer, not to the network.
TEST(TraceTest, RpcHandlerTimeIsNotNetTime) {
  class SlowService : public Service {
   public:
    StatusOr<Bytes> Handle(uint32_t, const Bytes&, NodeId) override {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return Bytes{};
    }
  };
  Network net;
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  LinkParams link;
  link.latency = std::chrono::milliseconds(1);
  net.SetLinkParams(a, link);
  net.SetLinkParams(b, link);
  SlowService svc;
  net.RegisterService(b, "slow", &svc);

  MetricsRegistry reg;
  OpMetrics m = OpMetrics::For(&reg, "rpc_op");
  {
    OpTrace trace(&m);
    SpanScope lock_scope(Layer::kLock, "test.server_call");
    ASSERT_TRUE(net.Call(a, b, "slow", 1, Bytes(16, 0)).ok());
  }
  ASSERT_EQ(m.layer_us[kNetIdx]->count(), 1u);
  double net_us = m.layer_us[kNetIdx]->Mean();
  double lock_us = m.layer_us[kLockIdx]->Mean();
  // Two 1 ms messages on the wire; the 50 ms handler is the caller's.
  EXPECT_GE(net_us, 1500);
  EXPECT_GE(lock_us, 45000);
  EXPECT_LT(net_us, lock_us / 2);
  double sum = 0;
  for (int i = 0; i < obs::kNumLayers; ++i) {
    if (m.layer_us[i]->count() > 0) {
      sum += m.layer_us[i]->Mean();
    }
  }
  EXPECT_NEAR(sum, m.total_us->Mean(), m.total_us->Mean() * 0.1 + 50);
}

// End-to-end: a traced FS op propagates through the clerk, WAL, Petal
// client, and network on the caller's thread, so per-layer breakdowns in
// the default registry are populated.
TEST(TracePropagationTest, FsOpsProduceLayerBreakdowns) {
  MetricsRegistry* reg = MetricsRegistry::Default();
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  auto node = cluster.AddFrangipani();
  ASSERT_TRUE(node.ok());
  FrangipaniFs* fs = (*node)->fs();

  uint64_t create_before = reg->GetCounter("op.create.count")->value();
  uint64_t read_petal_before = reg->GetHistogram("op.read.petal_us")->count();

  auto ino = fs->Create("/traced");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Write(*ino, 0, Bytes(8192, 0xAB)).ok());
  ASSERT_TRUE(fs->Fsync(*ino).ok());
  ASSERT_TRUE(fs->DropCaches().ok());
  Bytes buf;
  ASSERT_TRUE(fs->Read(*ino, 0, 8192, &buf).ok());

  // Create acquired locks and talked to the lock server over the network.
  EXPECT_GT(reg->GetCounter("op.create.count")->value(), create_before);
  EXPECT_GE(reg->GetHistogram("op.create.total_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("op.create.lock_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("op.create.net_us")->count(), 1u);
  // The cold read went to Petal inside the traced op.
  EXPECT_GT(reg->GetHistogram("op.read.petal_us")->count(), read_petal_before);
  // Layer wiring fed the standalone histograms and per-node net counters.
  EXPECT_GE(reg->GetHistogram("petal.read_us")->count(), 1u);
  EXPECT_GE(reg->GetHistogram("lock.acquire_us")->count(), 1u);
  EXPECT_GT(reg->GetCounter("petal.read_bytes")->value(), 0u);
  EXPECT_GT(reg->GetCounter("net.n1.msgs")->value(), 0u);

  // The cluster-level dump sees all of it.
  std::string json = cluster.DumpMetricsJson();
  EXPECT_NE(json.find("\"op.create.total_us\""), std::string::npos);
  EXPECT_NE(json.find("\"op.read.petal_us\""), std::string::npos);
  std::string text = cluster.DumpMetrics();
  EXPECT_NE(text.find("op.create.count"), std::string::npos);
}

// ---- Flight recorder ----

using obs::EventKind;
using obs::Recorder;
using obs::RecordInstant;
using obs::TraceEvent;

// The disabled path is one relaxed load: no ring is allocated, no event is
// constructed, no counter moves.
TEST(RecorderTest, DisabledPathAllocatesNothing) {
  Recorder* rec = Recorder::Default();
  rec->Enable(false);
  rec->Clear();
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t events_before = reg->GetCounter("obs.events")->value();
  uint64_t dropped_before = reg->GetCounter("obs.dropped_events")->value();
  for (int i = 0; i < 1000; ++i) {
    SpanScope span(Layer::kPetal, "disabled.span", 1, "i", i);
    RecordInstant(Layer::kLock, "disabled.instant", 1);
  }
  EXPECT_EQ(rec->ring_count(), 0u);
  EXPECT_TRUE(rec->Snapshot().empty());
  EXPECT_EQ(reg->GetCounter("obs.events")->value(), events_before);
  EXPECT_EQ(reg->GetCounter("obs.dropped_events")->value(), dropped_before);
}

TEST(RecorderTest, RingWraparoundOverwritesOldestAndCountsDrops) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t dropped_before = reg->GetCounter("obs.dropped_events")->value();
  constexpr uint64_t kExtra = 100;
  // One marker that must be overwritten, then enough to wrap the ring.
  RecordInstant(Layer::kFs, "wrap.early", 1);
  for (uint64_t i = 0; i + 1 < Recorder::kRingSlots + kExtra; ++i) {
    RecordInstant(Layer::kFs, "wrap.late", 1, "i", i);
  }
  std::vector<TraceEvent> snap = rec->Snapshot();
  EXPECT_EQ(snap.size(), Recorder::kRingSlots);
  for (const TraceEvent& e : snap) {
    EXPECT_STRNE(e.name, "wrap.early");
  }
  EXPECT_EQ(reg->GetCounter("obs.dropped_events")->value(), dropped_before + kExtra);
  rec->Enable(false);
  rec->Clear();
}

// A promoted slow op keeps a copy of its span tree, so later ring
// wraparound cannot erase it; the kept events also reach DumpJson.
TEST(RecorderTest, SlowOpPromotionSurvivesWraparound) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  rec->set_slow_op_us(1);  // everything is "slow"
  MetricsRegistry* reg = MetricsRegistry::Default();
  uint64_t promoted_before = reg->GetCounter("obs.slow_ops")->value();
  MetricsRegistry local;
  OpMetrics m = OpMetrics::For(&local, "slowop");
  uint64_t id = 0;
  {
    OpTrace op(&m, /*node=*/7);
    id = obs::CurrentTraceId();
    SpanScope inner(Layer::kPetal, "slowop.inner", 7, "chunk", 42);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rec->set_slow_op_us(0);
  EXPECT_EQ(reg->GetCounter("obs.slow_ops")->value(), promoted_before + 1);
  // Wrap the ring so the live copies of the op's events are overwritten.
  for (uint64_t i = 0; i < Recorder::kRingSlots + 8; ++i) {
    RecordInstant(Layer::kFs, "slowop.filler", 7);
  }
  std::vector<Recorder::SlowOp> kept = rec->SlowOps();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace_id, id);
  EXPECT_EQ(kept[0].node, 7u);
  EXPECT_STREQ(kept[0].op, "slowop");
  bool has_inner = false;
  for (const TraceEvent& e : kept[0].events) {
    if (std::string(e.name) == "slowop.inner") {
      has_inner = true;
      EXPECT_EQ(e.trace_id, id);
      EXPECT_EQ(e.a0, 42u);
    }
  }
  EXPECT_TRUE(has_inner);
  // The dump merges kept slow-op events back in even after overwrite.
  std::string json = rec->DumpJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("slowop.inner"), std::string::npos);
  EXPECT_FALSE(rec->SlowestOpSummary().empty());
  rec->Enable(false);
  rec->Clear();
}

// A flood of slow ops of one name cannot push the only capture of another
// name off the keep-list: each name keeps its slowest.
TEST(RecorderTest, KeepListKeepsTheSlowestOpOfEachName) {
  Recorder* rec = Recorder::Default();
  rec->Clear();
  const int64_t n = static_cast<int64_t>(Recorder::kMaxSlowOps);
  for (int64_t i = 0; i < n; ++i) {
    rec->PromoteSlowOp(1000 + i, "fsync", 1, 0, 1'000'000 + i);
  }
  rec->PromoteSlowOp(5000, "unlink", 1, 0, 10);
  for (int64_t i = 0; i < n; ++i) {
    rec->PromoteSlowOp(2000 + i, "fsync", 1, 0, 2'000'000 + i);
  }
  EXPECT_EQ(rec->SlowOps().size(), Recorder::kMaxSlowOps);
  std::vector<Recorder::SlowOp> per_name = rec->SlowestOpPerName();
  ASSERT_EQ(per_name.size(), 2u);
  EXPECT_STREQ(per_name[0].op, "fsync");
  EXPECT_EQ(per_name[0].total_ns, 2'000'000 + n - 1);
  EXPECT_STREQ(per_name[1].op, "unlink");
  EXPECT_EQ(per_name[1].trace_id, 5000u);
  rec->Clear();
}

// Emitters keep writing while another thread snapshots and dumps: the
// seqlock skips mid-write slots instead of tearing them. Run under TSan in
// CI to verify the memory-order protocol.
TEST(RecorderTest, ConcurrentEmitDuringDump) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;  // > kRingSlots: wraps while dumping
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        SpanScope span(Layer::kNet, "race.span", t + 1, "i", i);
        RecordInstant(Layer::kNet, "race.instant", t + 1);
      }
      running.fetch_sub(1);
    });
  }
  // Dump continuously until every writer has finished, so reads overlap the
  // emits (and the overwrites, once the rings wrap).
  do {
    std::vector<TraceEvent> snap = rec->Snapshot();
    for (const TraceEvent& e : snap) {
      ASSERT_NE(e.name, nullptr);
    }
    std::string json = rec->DumpJson();
    int depth = 0;
    for (char ch : json) {
      depth += (ch == '{') - (ch == '}');
      ASSERT_GE(depth, 0);
    }
    ASSERT_EQ(depth, 0);
  } while (running.load() > 0);
  for (auto& w : writers) {
    w.join();
  }
  // Exited writers retired their rings; their events are still visible.
  EXPECT_FALSE(rec->Snapshot().empty());
  rec->Enable(false);
  rec->Clear();
}

// Async work submitted from inside a traced op inherits the op's trace id,
// so spans emitted on IO-pool threads land in the same span tree, and so
// does the task's wait for a pool thread (net.io_wait).
TEST(RecorderTest, TraceIdPropagatesThroughIoPool) {
  Recorder* rec = Recorder::Default();
  rec->Enable(true);
  rec->Clear();
  Network net;
  NodeId node = net.AddNode("a");
  MetricsRegistry local;
  OpMetrics m = OpMetrics::For(&local, "async_op");
  uint64_t id = 0;
  std::atomic<uint64_t> submit_seen{0};
  std::vector<uint64_t> pf_seen(8, 0);
  {
    OpTrace op(&m);
    id = obs::CurrentTraceId();
    ASSERT_NE(id, 0u);
    std::promise<void> done;
    net.SubmitIo(node, [&] {
      submit_seen.store(obs::CurrentTraceId());
      {
        SpanScope span(Layer::kPetal, "pool.span");
      }
      // Signal only after the span has been emitted, so the snapshot below
      // is ordered after it.
      done.set_value();
    });
    done.get_future().wait();
    ASSERT_TRUE(net.ParallelFor(node, pf_seen.size(), /*window=*/4,
                                [&](size_t i) {
                                  pf_seen[i] = obs::CurrentTraceId();
                                  return Status::Ok();
                                })
                    .ok());
  }
  EXPECT_EQ(submit_seen.load(), id);
  for (uint64_t seen : pf_seen) {
    EXPECT_EQ(seen, id);
  }
  // Off the pool and outside the op, no id leaks.
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  bool pool_span_tagged = false;
  size_t io_waits = 0;
  for (const TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "pool.span") {
      pool_span_tagged = e.trace_id == id;
    }
    if (std::string(e.name) == "net.io_wait" && e.trace_id == id && e.node == node) {
      ++io_waits;
    }
  }
  EXPECT_TRUE(pool_span_tagged);
  // One wait per submitted task: the SubmitIo and the eight ParallelFor ops.
  EXPECT_EQ(io_waits, 1 + pf_seen.size());
  rec->Enable(false);
  rec->Clear();
}

// The block cache writes dirty blocks back on its IO pool; an fsync's
// Petal writes made there are still children of the fsync.
TEST(RecorderTest, FsyncWriteBackSpansCarryTheFsyncTraceId) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.node.start_demons = false;  // every Petal write below is the fsync's
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* fs = cluster.fs(0);
  auto ino = fs->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Write(*ino, 0, Bytes(256 << 10, 7)).ok());

  Recorder* rec = Recorder::Default();
  rec->Clear();
  ASSERT_TRUE(fs->Fsync(*ino).ok());
  std::vector<TraceEvent> events = rec->Snapshot();
  uint64_t fsync_id = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "fsync") {
      fsync_id = e.trace_id;
    }
  }
  ASSERT_NE(fsync_id, 0u);
  size_t writes = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "petal.write") {
      ++writes;
      EXPECT_EQ(e.trace_id, fsync_id) << "petal.write span outside the fsync's tree";
    }
  }
  // The log record plus the file's data chunks.
  EXPECT_GT(writes, 4u);
  rec->Enable(false);
  rec->Clear();
}

// The block cache's wait spans carry the mount's node id, so a write-back
// shows on that machine's row in Perfetto.
TEST(RecorderTest, BlockCacheWaitSpansCarryTheMountsNode) {
  ClusterOptions opts;
  opts.petal_servers = 3;
  opts.disks_per_petal = 1;
  opts.node.start_demons = false;
  // Every Petal write costs a link round trip, so the fsync below waits for
  // the metadata it submits last.
  opts.enable_timing = true;
  opts.link = LinkParams{Duration(500), 0};
  opts.disk.seek_time = Duration(0);
  opts.disk.transfer_bps = 1e9;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.AddFrangipani().ok());
  FrangipaniFs* fs = cluster.fs(0);
  const NodeId node = cluster.frangipani_node(0);
  ASSERT_NE(node, 0u);
  auto ino = fs->Create("/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs->Write(*ino, 0, Bytes(256 << 10, 7)).ok());

  Recorder* rec = Recorder::Default();
  rec->Clear();
  ASSERT_TRUE(fs->Fsync(*ino).ok());
  size_t waits = 0;
  for (const TraceEvent& e : rec->Snapshot()) {
    if (std::string(e.name) == "fs.cache.writeback_wait") {
      ++waits;
      EXPECT_EQ(e.node, node);
    }
  }
  EXPECT_GT(waits, 0u);
  rec->Enable(false);
  rec->Clear();
}

}  // namespace
}  // namespace frangipani
