// fsbench: the file-system benchmark. One closed-loop client thread per
// mount drives an in-process paper-testbed cluster (bench::PaperClusterOptions,
// 4 Frangipani nodes) through one of three workloads:
//
//   meta_private  sync-log mount; each client loops create / write 1 KB /
//                 stat / read 1 KB / unlink in its own directory. The stat
//                 and read go through the inode the create returned, as a
//                 caller holding the open file would.
//   meta_shared   the same cycle, all clients in one shared directory, so
//                 every cycle pays lock revokes between the nodes.
//   stream_rw     no sync-log; each client creates a private 2 MB file,
//                 writes it in 64 KB units and fsyncs it, drops its cache,
//                 stats it and reads it back cold in 64 KB units, and
//                 unlinks it. The clients take these four phases together,
//                 as the paper's machines stream at the same time; without
//                 the barriers a create or unlink would queue behind other
//                 nodes' data traffic at random, and its latency would be a
//                 lottery of where the modeled disk heads happen to be.
//
// A run is several rounds, one per 4 s of --seconds (at least 1, at most
// 5), each on a freshly built cluster. After each round's timed phase
// every node syncs and fsck runs on the shared virtual disk; every read is
// compared with the bytes written, and every stat with the size written.
// Any non-OK status is counted as a failed call.
//
// Untraced (--trace 0) rounds give the end-to-end metrics. With --trace 1
// one untraced round and one round with the flight recorder on run back to
// back; the traced round's registry counters and histograms give the
// per-layer metrics, and the pair gives the tracing overhead.
//
// Usage:
//   fsbench --workload meta_private --seed 1 --seconds 20 --trace 0
// The last line of stdout is one JSON object with the run's metrics;
// fsbench/run.py builds this program, runs it and checks that line.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/base/rng.h"
#include "src/fs/fsck.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"

using namespace frangipani;
using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

namespace {

constexpr int kNodes = 4;
constexpr size_t kSmallBytes = 1024;
constexpr size_t kUnitBytes = 64 * 1024;
constexpr size_t kStreamFileBytes = 2 << 20;
constexpr uint32_t kSegments = 256;
constexpr int kPayloadPool = 16;  // distinct payload buffers per client
constexpr size_t kMaxProblems = 8;

enum Op { kCreate, kWrite, kFsync, kDropCaches, kStat, kRead, kUnlink, kNumOps };
constexpr const char* kOpName[kNumOps] = {"create", "write",  "fsync", "drop_caches",
                                          "stat",   "read",   "unlink"};
constexpr const char* kBenchSpan[kNumOps] = {"bench.create", "bench.write", "bench.fsync",
                                             "bench.drop_caches", "bench.stat", "bench.read",
                                             "bench.unlink"};

struct Workload {
  const char* name;
  bool sync_log;    // flush policy: flush the log before each metadata op returns
  bool shared_dir;  // all clients in one directory
  bool stream;      // 2 MB streaming cycle instead of the small-op cycle
};

constexpr Workload kWorkloads[] = {
    {"meta_private", true, false, false},
    {"meta_shared", true, true, false},
    {"stream_rw", false, false, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool corrupt_readback = false;  // self-test: flip a byte of every read-back buffer
};

// A named value as printed: `base` says what it was computed from (sample
// count, or the numerator and denominator of a ratio); `moves` names the
// end-to-end metric and workload a per-layer metric should move.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
  std::string moves;
};

// One client's results for one round.
struct Tally {
  std::vector<double> ms[kNumOps];  // latencies of calls started after warm-up
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_calls = 0;     // successful calls in the whole phase
  uint64_t window_calls = 0; // successful calls completed after warm-up
  uint64_t creates = 0;      // attempted creates, whole phase
  uint64_t creates_ok = 0;
  uint64_t unlinks_ok = 0;
  uint64_t user_written = 0;  // bytes written, whole phase
  // Bytes moved and wall-clock seconds of the phases that moved them, for
  // phases started after warm-up: a stream cycle's write and read phases
  // (barrier to barrier), or a whole metadata cycle, which does both.
  uint64_t written = 0;
  uint64_t read = 0;
  double write_s = 0;
  double read_s = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;    // first failed calls, for the log
  std::vector<std::string> problems;  // first wrong outputs: fail the run
};

const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& s) {
  return s.status();
}

uint64_t Mix(uint64_t a, uint64_t b) { return Rng(a * 0x9E3779B97F4A7C15ull ^ (b + 1)).Next(); }

double Seconds(TimePoint a, TimePoint b) { return std::chrono::duration<double>(b - a).count(); }

// The stream clients' barrier. Its completion step, run once per phase by
// the last client to arrive, records whether the deadline has passed, so
// every client sees the same answer after a cycle's last phase.
struct PastDeadline {
  const TimePoint* deadline;
  std::atomic<bool>* done;
  void operator()() noexcept { done->store(SteadyClock::now() >= *deadline); }
};
using PhaseBarrier = std::barrier<PastDeadline>;

class Client {
 public:
  // `phases` is null for the metadata workloads.
  Client(FrangipaniFs* fs, uint32_t node, const Workload& w, uint64_t seed, std::string dir,
         std::string prefix, bool corrupt, Tally* tally, PhaseBarrier* phases,
         const std::atomic<bool>* done)
      : fs_(fs),
        node_(node),
        stream_(w.stream),
        seed_(seed),
        dir_(std::move(dir)),
        prefix_(std::move(prefix)),
        corrupt_(corrupt),
        len_(w.stream ? kUnitBytes : kSmallBytes),
        t_(tally),
        phases_(phases),
        done_(done) {
    Rng rng(seed);
    for (int k = 0; k < kPayloadPool; ++k) {
      Bytes b(len_);
      for (size_t j = 0; j < len_; j += 8) {
        uint64_t v = rng.Next();
        std::memcpy(b.data() + j, &v, std::min<size_t>(8, len_ - j));
      }
      pool_.push_back(std::move(b));
    }
    obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
    for (int op = 0; op < kNumOps; ++op) {
      bench_us_[op] = reg->GetHistogram(std::string(kBenchSpan[op]) + ".us");
    }
  }

  // Closed loop: each cycle starts when the previous one returns; at least
  // one cycle runs, and the last one started before the deadline finishes.
  void Run(TimePoint start, TimePoint warm_end, TimePoint deadline) {
    warm_end_ = warm_end;
    std::this_thread::sleep_until(start);
    uint64_t i = 0;
    if (stream_) {
      do {
        StreamCycle(i++);
      } while (!done_->load());
      return;
    }
    do {
      MetaCycle(i++);
    } while (SteadyClock::now() < deadline);
  }

 private:
  // Times one FrangipaniFs call under a benchmark-side span and tallies it.
  template <typename F>
  auto Call(Op op, size_t bytes, F&& fn) {
    obs::SpanScope span(obs::Layer::kFs, kBenchSpan[op], node_);
    TimePoint t0 = SteadyClock::now();
    auto result = fn();
    TimePoint t1 = SteadyClock::now();
    double secs = Seconds(t0, t1);
    bench_us_[op]->Record(secs * 1e6);
    const Status& s = StatusOf(result);
    ++t_->attempted;
    if (!s.ok()) {
      ++t_->failed;
      Note(&t_->errors, std::string(kOpName[op]) + ": " + s.ToString());
      return result;
    }
    ++t_->ok_calls;
    if (op == kWrite) {
      t_->user_written += bytes;
    }
    if (t1 >= warm_end_) {
      ++t_->window_calls;
    }
    if (t0 >= warm_end_) {
      t_->ms[op].push_back(secs * 1e3);
    }
    return result;
  }

  void Note(std::vector<std::string>* list, const std::string& what) {
    if (list->size() < kMaxProblems) {
      list->push_back("node " + std::to_string(node_) + ": " + what);
    }
  }

  // The bytes of unit `u` of cycle `i`: a pooled random buffer stamped with
  // (seed, cycle, unit), so a block read back from the wrong place differs.
  void Expected(uint64_t i, uint64_t u, Bytes* out) const {
    *out = pool_[(i * 7 + u) % pool_.size()];
    uint64_t stamp[3] = {seed_, i, u};
    std::memcpy(out->data(), stamp, sizeof(stamp));
  }

  void Verify(const StatusOr<size_t>& n, Bytes* got, const Bytes& want, const std::string& what) {
    if (!n.ok()) {
      return;  // already counted as a failed call
    }
    if (corrupt_ && !got->empty()) {
      (*got)[got->size() / 2] ^= 0x5A;
    }
    if (*n != want.size() || *got != want) {
      ++t_->mismatches;
      Note(&t_->problems, "read-back mismatch in " + what);
    }
  }

  void CheckSize(const StatusOr<FileAttr>& st, uint64_t size, const std::string& path) {
    if (st.ok() && (st->size != size || st->type != FileType::kRegular)) {
      ++t_->mismatches;
      Note(&t_->problems, "stat mismatch on " + path + ": size " + std::to_string(st->size));
    }
  }

  std::string Path(uint64_t i) const { return dir_ + "/" + prefix_ + std::to_string(i); }

  // Adds a phase's bytes and wall-clock time if it began after warm-up.
  void Phase(TimePoint begin, TimePoint end, uint64_t bytes, uint64_t* moved, double* secs) {
    if (begin >= warm_end_) {
      *moved += bytes;
      *secs += Seconds(begin, end);
    }
  }

  void MetaCycle(uint64_t i) {
    const TimePoint begin = SteadyClock::now();
    std::string path = Path(i);
    ++t_->creates;
    auto ino = Call(kCreate, 0, [&] { return fs_->Create(path); });
    if (!ino.ok()) {
      return;
    }
    ++t_->creates_ok;
    Expected(i, 0, &want_);
    Status w = Call(kWrite, len_, [&] { return fs_->Write(*ino, 0, want_); });
    auto st = Call(kStat, 0, [&] { return fs_->StatIno(*ino); });
    bool read_ok = false;
    if (w.ok()) {
      CheckSize(st, len_, path);
      auto n = Call(kRead, len_, [&] { return fs_->Read(*ino, 0, len_, &got_); });
      Verify(n, &got_, want_, path);
      read_ok = n.ok();
    }
    if (Call(kUnlink, 0, [&] { return fs_->Unlink(path); }).ok()) {
      ++t_->unlinks_ok;
    }
    const TimePoint end = SteadyClock::now();
    Phase(begin, end, w.ok() ? len_ : 0, &t_->written, &t_->write_s);
    Phase(begin, end, read_ok ? len_ : 0, &t_->read, &t_->read_s);
  }

  // Every client arrives at every barrier, whatever failed before it.
  void StreamCycle(uint64_t i) {
    std::string path = Path(i);
    ++t_->creates;
    auto ino = Call(kCreate, 0, [&] { return fs_->Create(path); });
    const bool created = ino.ok();
    t_->creates_ok += created;
    phases_->arrive_and_wait();

    const TimePoint write_begin = SteadyClock::now();
    const uint64_t units = kStreamFileBytes / kUnitBytes;
    uint64_t written = 0, read = 0;
    for (uint64_t u = 0; created && u < units; ++u) {
      Expected(i, u, &want_);
      if (Call(kWrite, len_, [&] { return fs_->Write(*ino, u * len_, want_); }).ok()) {
        written += len_;
      }
    }
    bool wrote_all = created && written == kStreamFileBytes;
    if (created) {
      wrote_all &= Call(kFsync, 0, [&] { return fs_->Fsync(*ino); }).ok();
    }
    phases_->arrive_and_wait();

    const TimePoint read_begin = SteadyClock::now();
    if (created) {
      (void)Call(kDropCaches, 0, [&] { return fs_->DropCaches(); });
      auto st = Call(kStat, 0, [&] { return fs_->StatIno(*ino); });
      if (wrote_all) {
        CheckSize(st, kStreamFileBytes, path);
        for (uint64_t u = 0; u < units; ++u) {
          auto n = Call(kRead, len_, [&] { return fs_->Read(*ino, u * len_, len_, &got_); });
          Expected(i, u, &want_);
          Verify(n, &got_, want_, path + " unit " + std::to_string(u));
          read += n.ok() ? len_ : 0;
        }
      }
    }
    phases_->arrive_and_wait();
    const TimePoint read_end = SteadyClock::now();
    Phase(write_begin, read_begin, written, &t_->written, &t_->write_s);
    Phase(read_begin, read_end, read, &t_->read, &t_->read_s);

    if (created && Call(kUnlink, 0, [&] { return fs_->Unlink(path); }).ok()) {
      ++t_->unlinks_ok;
    }
    phases_->arrive_and_wait();
  }

  FrangipaniFs* fs_;
  uint32_t node_;
  bool stream_;
  uint64_t seed_;
  std::string dir_;
  std::string prefix_;
  bool corrupt_;
  size_t len_;
  Tally* t_;
  PhaseBarrier* phases_;
  const std::atomic<bool>* done_;
  std::vector<Bytes> pool_;
  Histogram* bench_us_[kNumOps] = {};
  Bytes want_;
  Bytes got_;
  TimePoint warm_end_{};
};

// ---- per-layer metrics, read from the process-wide registry ----

obs::MetricsRegistry* Reg() { return obs::MetricsRegistry::Default(); }
double CounterValue(const std::string& name) {
  return static_cast<double>(Reg()->GetCounter(name)->value());
}
Histogram* Hist(const std::string& name) { return Reg()->GetHistogram(name); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct LayerInputs {
  double calls = 0;        // successful FrangipaniFs calls in the traced phase
  double creates = 0;      // attempted creates
  double user_bytes = 0;   // bytes the clients wrote
  double prefetch_wasted = 0;
  double net_msgs = 0;
  double net_bytes = 0;
};

std::vector<Metric> LayerMetrics(const LayerInputs& in) {
  std::vector<Metric> out;
  auto pct = [&](const std::string& hist, double p, const char* suffix, const char* moves) {
    Histogram* h = Hist(hist);
    out.push_back(
        {hist + suffix, h->Percentile(p), "us", "n=" + std::to_string(h->count()), moves});
  };
  auto ratio = [&](const std::string& name, double num, double den, const char* unit,
                   const std::string& base, const char* moves) {
    out.push_back({name, Ratio(num, den), unit, base + " = " + Num(num) + " / " + Num(den), moves});
  };
  const char* private_op = "that op's p50 (op_p50_ms for stat, read) on meta_private";
  // fs
  for (const char* op : {"create", "write", "stat", "unlink", "read"}) {
    pct(std::string("op.") + op + ".fs_us", 0.5, ".p50", private_op);
  }
  double hits = CounterValue("fs.cache.hits"), misses = CounterValue("fs.cache.misses");
  ratio("fs.cache.hit_ratio", hits, hits + misses, "ratio", "hits / lookups",
        "read_MBps on stream_rw; op_p50_ms on meta_*");
  pct("fs.cache.shard_wait_us", 0.99, ".p99", "ops_per_s on meta_private");
  ratio("fs.retries_per_create", CounterValue("fs.retries"), in.creates, "1/create",
        "fs.retries / creates", "failed calls and ops_per_s on meta_*");
  out.push_back({"fs.prefetch_wasted", in.prefetch_wasted, "count", "summed over nodes",
                 "read_MBps on stream_rw"});
  // wal
  const char* wal_moves = "create_p50_ms and unlink_p50_ms on meta_private";
  pct("wal.flush_us", 0.5, ".p50", wal_moves);
  pct("wal.flush_us", 0.99, ".p99", wal_moves);
  for (const char* op : {"create", "write", "unlink"}) {
    pct(std::string("op.") + op + ".wal_us", 0.5, ".p50", wal_moves);
  }
  ratio("wal.records_per_flush", CounterValue("wal.appends"),
        static_cast<double>(Hist("wal.flush_us")->count()), "records/flush",
        "wal.appends / FlushTo+FlushAll calls", "ops_per_s on meta_private");
  // lock
  const char* lock_moves = "op_p50_ms and ops_per_s on meta_shared; no move elsewhere";
  pct("lock.acquire_us", 0.5, ".p50", lock_moves);
  pct("lock.acquire_us", 0.99, ".p99", lock_moves);
  pct("lock.grant_wait_us", 0.5, ".p50", lock_moves);
  pct("lock.grant_wait_us", 0.99, ".p99", lock_moves);
  double remote = CounterValue("lock.acquire.remote"), sticky = CounterValue("lock.acquire.sticky");
  ratio("lock.remote_per_op", remote, in.calls, "1/op", "remote acquires / calls", lock_moves);
  ratio("lock.sticky_hit_ratio", sticky, sticky + remote, "ratio", "sticky / acquires", lock_moves);
  ratio("lock.revokes_per_op", CounterValue("lock.revoke.count"), in.calls, "1/op",
        "revokes / calls", lock_moves);
  pct("lock.revoke_us", 0.5, ".p50", lock_moves);
  // petal
  const char* petal_moves = "write_MBps and read_MBps on stream_rw; create_p50_ms on meta_private";
  for (const char* h :
       {"petal.write_us", "petal.read_us", "petal.server_write_us", "petal.chunk_us"}) {
    pct(h, 0.5, ".p50", petal_moves);
    pct(h, 0.99, ".p99", petal_moves);
  }
  double petal_bytes = CounterValue("petal.write_bytes") + CounterValue("petal.server.repl_bytes");
  ratio("petal.write_bytes_per_user_byte", petal_bytes, in.user_bytes, "B/B",
        "(client + replica bytes) / user bytes", petal_moves);
  out.push_back({"petal.inflight_peak",
                 static_cast<double>(Reg()->GetGauge("petal.inflight_peak")->value()), "count",
                 "gauge", petal_moves});
  pct("petal.store_wait_us", 0.99, ".p99", petal_moves);
  // net
  ratio("net.msgs_per_op", in.net_msgs, in.calls, "1/op", "messages / calls",
        "ops_per_s on meta_*");
  ratio("net.vector_subcalls_per_call", CounterValue("net.vector_subcalls"),
        CounterValue("net.vector_calls"), "1/call", "sub-calls / vector calls",
        "ops_per_s on meta_*");
  ratio("net.bytes_per_user_byte", in.net_bytes, in.user_bytes, "B/B", "wire bytes / user bytes",
        "write_MBps on stream_rw");
  pct("net.queue_delay_us", 0.5, ".p50", "ops_per_s on meta_private");
  pct("net.queue_delay_us", 0.99, ".p99", "ops_per_s on meta_private");
  // bench: the caller's view of each call, around the whole FrangipaniFs op
  for (int op : {kCreate, kWrite, kFsync, kStat, kRead, kUnlink}) {
    pct(std::string(kBenchSpan[op]) + ".us", 0.5, ".p50", "that op's p50 on every workload");
  }
  return out;
}

// ---- rounds ----

struct Round {
  double setup_s = 0;
  double window_s = 0;
  std::vector<Tally> tallies;
  std::vector<std::string> problems;
  std::vector<Metric> layers;  // traced round only
};

double OpsPerSecond(const Round& r) {
  uint64_t calls = 0;
  for (const Tally& t : r.tallies) {
    calls += t.window_calls;
  }
  return Ratio(static_cast<double>(calls), r.window_s);
}

Round RunRound(const Args& args, int round, double phase_s, bool traced) {
  const Workload& w = *args.workload;
  Round r;
  obs::Recorder* rec = obs::Recorder::Default();
  rec->Enable(false);

  ClusterOptions opts = bench::PaperClusterOptions(/*nvram=*/false);
  opts.node.fs.sync_log = w.sync_log;
  opts.flight_recorder = traced;
  // fsck reads every segment's bitmap at ~0.8 ms of modeled link time each;
  // 256 segments (128 Ki inodes, far more than any workload holds) keep
  // that pass near 0.2 s instead of 50 s for the default 65536.
  opts.geometry.num_segments = kSegments;

  // Names and payloads derive from the seed and the round.
  uint64_t round_seed = Mix(args.seed, static_cast<uint64_t>(round));
  Rng rng(round_seed);
  std::string prefix = rng.Name(6);
  std::vector<std::string> dirs;
  for (int m = 0; m < kNodes; ++m) {
    dirs.push_back("/" + prefix + (w.shared_dir ? "_shared" : "_d" + std::to_string(m)));
  }

  TimePoint t0 = SteadyClock::now();
  auto cluster = std::make_unique<Cluster>(opts);
  Status s = cluster->Start();
  for (int m = 0; s.ok() && m < kNodes; ++m) {
    s = cluster->AddFrangipani().status();
  }
  for (int m = 0; s.ok() && m < kNodes; ++m) {
    if (m == 0 || !w.shared_dir) {
      s = cluster->fs(m)->Mkdir(dirs[m]);
    }
  }
  r.setup_s = Seconds(t0, SteadyClock::now());
  if (!s.ok()) {
    r.problems.push_back("setup: " + s.ToString());
    return r;
  }

  // Setup traffic (mkfs, mounts, mkdirs) must not leak into the counters
  // or the trace.
  Reg()->ResetAll();
  rec->Clear();
  std::vector<uint64_t> wasted_before(kNodes);
  for (int m = 0; m < kNodes; ++m) {
    wasted_before[m] = cluster->fs(m)->Stats().prefetch_wasted;
  }

  TimePoint deadline{};
  std::atomic<bool> done{false};
  PhaseBarrier phases(kNodes, PastDeadline{&deadline, &done});

  r.tallies.resize(kNodes);
  std::vector<std::unique_ptr<Client>> clients;
  for (int m = 0; m < kNodes; ++m) {
    std::string file_prefix = prefix + "_c" + std::to_string(m) + "_";
    clients.push_back(std::make_unique<Client>(
        cluster->fs(m), cluster->frangipani_node(m), w, Mix(round_seed, m), dirs[m],
        file_prefix, args.corrupt_readback, &r.tallies[m], w.stream ? &phases : nullptr, &done));
  }
  // The seed also fixes the order in which clients start, 1 ms apart.
  std::vector<int> order(kNodes);
  for (int m = 0; m < kNodes; ++m) {
    order[m] = m;
  }
  for (int k = kNodes - 1; k > 0; --k) {
    std::swap(order[k], order[rng.Below(k + 1)]);
  }
  const double warm_s = std::min(1.0, 0.1 * phase_s);
  const TimePoint start = SteadyClock::now() + std::chrono::milliseconds(5);
  auto at = [start](double secs) {
    return start +
           std::chrono::duration_cast<SteadyClock::duration>(std::chrono::duration<double>(secs));
  };
  deadline = at(phase_s);
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kNodes; ++rank) {
    Client* c = clients[order[rank]].get();
    threads.emplace_back([c, at, rank, warm_s, deadline] {
      c->Run(at(rank * 1e-3), at(warm_s), deadline);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Throughput counts every call completed after warm-up, up to the end of
  // the last cycle, so it is a measured rate even when cycles run in step.
  r.window_s = Seconds(at(warm_s), SteadyClock::now());

  if (traced) {
    LayerInputs in;
    for (const Tally& t : r.tallies) {
      in.calls += static_cast<double>(t.ok_calls);
      in.creates += static_cast<double>(t.creates);
      in.user_bytes += static_cast<double>(t.user_written);
    }
    for (int m = 0; m < kNodes; ++m) {
      in.prefetch_wasted +=
          static_cast<double>(cluster->fs(m)->Stats().prefetch_wasted - wasted_before[m]);
    }
    std::vector<NodeId> nodes = cluster->petal_nodes();
    for (NodeId id : cluster->lock_nodes()) {
      nodes.push_back(id);
    }
    for (int m = 0; m < kNodes; ++m) {
      nodes.push_back(cluster->frangipani_node(m));
    }
    for (NodeId id : nodes) {
      in.net_msgs += CounterValue("net.n" + std::to_string(id) + ".msgs");
      in.net_bytes += CounterValue("net.n" + std::to_string(id) + ".bytes");
    }
    r.layers = LayerMetrics(in);
    rec->Enable(false);
    bench::WriteTraceDigest(std::string("fsbench_") + w.name);
  }

  // Correctness gate: everything durable, fsck clean, and the namespace
  // holds exactly the files the clients created and did not unlink.
  for (int m = 0; m < kNodes; ++m) {
    Status sync = cluster->fs(m)->SyncAll();
    if (!sync.ok()) {
      r.problems.push_back("SyncAll on node " + std::to_string(m) + ": " + sync.ToString());
    }
  }
  PetalDevice device(cluster->admin_petal(), cluster->vdisk());
  FsckReport report = RunFsck(&device, cluster->geometry());
  uint64_t live_files = 0;
  uint64_t attempted = 0, failed = 0;
  for (const Tally& t : r.tallies) {
    live_files += t.creates_ok - t.unlinks_ok;
    attempted += t.attempted;
    failed += t.failed;
    r.problems.insert(r.problems.end(), t.problems.begin(), t.problems.end());
    if (t.mismatches > t.problems.size()) {
      r.problems.push_back(std::to_string(t.mismatches) + " read-back or stat mismatches");
    }
    for (const std::string& e : t.errors) {
      std::printf("failed call: %s\n", e.c_str());
    }
  }
  if (!report.ok) {
    r.problems.push_back("fsck: " + report.Summary());
    for (size_t k = 0; k < report.problems.size() && k < kMaxProblems; ++k) {
      r.problems.push_back("fsck: " + report.problems[k]);
    }
  }
  if (report.files != live_files) {
    r.problems.push_back("fsck found " + std::to_string(report.files) + " files, expected " +
                         std::to_string(live_files));
  }
  std::printf("round %d%s: setup %.3f s, %.1f calls/s, %llu calls, %llu failed, fsck %s\n", round,
              traced ? " (traced)" : "", r.setup_s, OpsPerSecond(r),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              report.ok ? "clean" : "CORRUPT");
  std::fflush(stdout);
  return r;
}

// ---- end-to-end metrics over the untraced rounds ----

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i), v.end());
  return v[i];
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds) {
  std::vector<Metric> out;
  std::vector<double> setups;
  std::vector<double> all_ms;
  std::vector<double> op_ms[kNumOps];
  double calls = 0, window_s = 0;
  for (const Round& r : rounds) {
    setups.push_back(r.setup_s);
    window_s += r.window_s;
    for (const Tally& t : r.tallies) {
      calls += static_cast<double>(t.window_calls);
      for (int op = 0; op < kNumOps; ++op) {
        op_ms[op].insert(op_ms[op].end(), t.ms[op].begin(), t.ms[op].end());
        all_ms.insert(all_ms.end(), t.ms[op].begin(), t.ms[op].end());
      }
    }
  }
  auto n = [](size_t count) { return "n=" + std::to_string(count); };
  out.push_back({"setup_s", Quantile(setups, 0.5), "s", "median of " + n(setups.size()), ""});
  out.push_back({"ops_per_s", Ratio(calls, window_s), "1/s",
                 Num(calls) + " calls / " + Num(window_s) + " s", ""});
  out.push_back({"op_p50_ms", Quantile(all_ms, 0.5), "ms", n(all_ms.size()), ""});
  auto p50 = [&](Op op) {
    out.push_back({std::string(kOpName[op]) + "_p50_ms", Quantile(op_ms[op], 0.5), "ms",
                   n(op_ms[op].size()), ""});
  };
  p50(kCreate);
  p50(kWrite);
  p50(kUnlink);
  // Aggregate bandwidth: per client, bytes over the wall-clock seconds of
  // the phases that moved them, summed over the clients (which run those
  // phases at the same time).
  double write_bps = 0, read_bps = 0;
  for (int c = 0; c < kNodes; ++c) {
    double written = 0, write_s = 0, read = 0, read_s = 0;
    for (const Round& r : rounds) {
      if (static_cast<size_t>(c) < r.tallies.size()) {
        written += static_cast<double>(r.tallies[c].written);
        write_s += r.tallies[c].write_s;
        read += static_cast<double>(r.tallies[c].read);
        read_s += r.tallies[c].read_s;
      }
    }
    write_bps += Ratio(written, write_s);
    read_bps += Ratio(read, read_s);
  }
  out.push_back({"write_MBps", write_bps / (1 << 20), "MB/s", "sum over clients", ""});
  out.push_back({"read_MBps", read_bps / (1 << 20), "MB/s", "sum over clients", ""});
  // Rounds are alike and each builds a fresh cluster, so the process's peak
  // is one round's peak.
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  out.push_back({"max_rss_MB", static_cast<double>(usage.ru_maxrss) / 1024, "MB",
                 "process peak over " + n(rounds.size()) + " rounds", ""});
  return out;
}

// ---- output ----

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Args& args, const std::vector<Round>& rounds,
                 const std::vector<Metric>& metrics) {
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  for (const Round& r : rounds) {
    for (const Tally& t : r.tallies) {
      attempted += t.attempted;
      failed += t.failed;
    }
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
  }
  std::string out = "{\"workload\":" + JsonString(args.workload->name) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"rounds\":" + std::to_string(rounds.size()) +
                    ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"sync_log\":" + (args.workload->sync_log ? "true" : "false") +
                    ",\"correct\":" + (problems.empty() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"problems\":[";
  for (size_t k = 0; k < problems.size(); ++k) {
    out += (k ? "," : "") + JsonString(problems[k]);
  }
  out += "],\"metrics\":[";
  for (size_t k = 0; k < metrics.size(); ++k) {
    const Metric& m = metrics[k];
    out += std::string(k ? "," : "") + "{\"name\":" + JsonString(m.name) +
           ",\"value\":" + JsonNumber(m.value) + ",\"unit\":" + JsonString(m.unit) +
           ",\"base\":" + JsonString(m.base) + ",\"moves\":" + JsonString(m.moves) + "}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "fsbench: %s\nusage: fsbench --workload meta_private|meta_shared|stream_rw "
               "--seed N --seconds S --trace 0|1 [--corrupt-readback]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--corrupt-readback") {
      args.corrupt_readback = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (v == w.name) {
            args.workload = &w;
          }
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(v);
      } else if (flag == "--trace") {
        args.trace = v == "1";
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {  // std::stoull and friends on a malformed number
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (!(args.seconds > 0)) {
    return Usage("--seconds must be positive");
  }
  // The modeled link and disk delays are sleeps. The default 50 us timer
  // slack is a quarter of the modeled 200 us link latency, and how much of
  // it a sleep gets depends on other timers on the host; without slack a
  // sleep ends when the model says. Threads inherit this setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::printf("fsbench: workload %s, seed %llu, %.3g s, trace %d, nproc %u, sync_log %s\n",
              args.workload->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency(),
              args.workload->sync_log ? "on" : "off");

  std::vector<Round> rounds;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const int n = std::clamp(static_cast<int>(std::lround(args.seconds / 4)), 1, 5);
    for (int k = 0; k < n; ++k) {
      rounds.push_back(RunRound(args, k, args.seconds / n, /*traced=*/false));
    }
    metrics = EndToEnd(rounds);
  } else {
    // Same seed-derived round index for both, so the pair differs only in
    // the recorder.
    rounds.push_back(RunRound(args, 0, args.seconds / 2, /*traced=*/false));
    rounds.push_back(RunRound(args, 0, args.seconds / 2, /*traced=*/true));
    metrics = rounds[1].layers;
    double untraced = OpsPerSecond(rounds[0]), traced = OpsPerSecond(rounds[1]);
    metrics.push_back({"tracing_overhead", 1 - Ratio(traced, untraced), "ratio",
                       "1 - " + Num(traced) + " / " + Num(untraced) + " calls/s",
                       "none: the price of the traced run itself"});
  }
  PrintResult(args, rounds, metrics);
  return 0;
}
