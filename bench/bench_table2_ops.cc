// Table 2: latency of metadata-heavy operations under the four
// configurations of Table 1. Uses google-benchmark for the measurement
// loop; each benchmark runs one operation per iteration on a fresh name.
// Paper claim (§9.2): Frangipani has good (low) metadata latency because
// updates are logged asynchronously; with synchronous logging it is still
// good because the log is contiguous and NVRAM absorbs the writes.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "bench/harness.h"

using namespace frangipani;
using namespace frangipani::bench;

namespace {

// One lazily-built environment per (frangipani?, nvram?) configuration,
// shared by the benchmarks of that configuration.
struct Env {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<AdvFsLike> advfs;
  FrangipaniFs* fs = nullptr;
  uint64_t counter = 0;
};

Env* GetEnv(bool frangipani, bool nvram) {
  static Env envs[4];
  Env& env = envs[(frangipani ? 2 : 0) + (nvram ? 1 : 0)];
  if (env.fs != nullptr) {
    return &env;
  }
  FrangipaniFs* fs = nullptr;
  if (frangipani) {
    env.cluster = std::make_unique<Cluster>(PaperClusterOptions(nvram));
    if (!env.cluster->Start().ok()) {
      return nullptr;
    }
    auto node = env.cluster->AddFrangipani();
    if (!node.ok()) {
      return nullptr;
    }
    fs = (*node)->fs();
  } else {
    env.advfs = std::make_unique<AdvFsLike>(PaperAdvFsOptions(nvram));
    if (!env.advfs->FormatAndMount().ok()) {
      return nullptr;
    }
    fs = env.advfs->fs();
  }
  if (!fs->Mkdir("/ops").ok()) {
    return nullptr;
  }
  // Spread fresh names over subdirectories so directory scans stay O(1) as
  // iteration counts grow.
  for (int d = 0; d < 16; ++d) {
    if (!fs->Mkdir("/ops/" + std::to_string(d)).ok()) {
      return nullptr;
    }
  }
  env.fs = fs;
  return &env;
}

std::string Fresh(Env* env, const char* stem) {
  uint64_t n = env->counter++;
  return "/ops/" + std::to_string(n % 16) + "/" + stem + std::to_string(n);
}

int g_failed_rows = 0;

// One benchmark row: its configuration's environment and a count of every
// op that failed, setup included. The count is printed as the row's
// `failed` counter; a row with any failure is reported as an error instead
// of a latency, and main exits nonzero.
class Row {
 public:
  explicit Row(benchmark::State& state)
      : state_(state), env_(GetEnv(state.range(0), state.range(1))) {
    Check(env_ != nullptr);
  }
  ~Row() {
    state_.counters["failed"] = static_cast<double>(failed_);
    if (failed_ > 0) {
      ++g_failed_rows;
      state_.SkipWithError("failed ops (see the failed counter)");
    }
  }

  Env* env() const { return env_; }
  bool ok() const { return failed_ == 0; }
  bool Check(bool ok) {
    failed_ += ok ? 0 : 1;
    return ok;
  }
  bool Check(const Status& st) { return Check(st.ok()); }
  template <typename T>
  bool Check(const StatusOr<T>& v) {
    return Check(v.ok());
  }
  // A read must succeed and return every byte asked for.
  bool CheckRead(const StatusOr<size_t>& n, size_t want) { return Check(n.ok() && *n == want); }

 private:
  benchmark::State& state_;
  Env* env_;
  uint64_t failed_ = 0;
};

void BM_Create(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  for (auto _ : state) {
    row.Check(env->fs->Create(Fresh(env, "c")));
  }
}

void BM_Mkdir(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  for (auto _ : state) {
    row.Check(env->fs->Mkdir(Fresh(env, "d")));
  }
}

void BM_UnlinkCreatePair(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  for (auto _ : state) {
    std::string path = Fresh(env, "u");
    row.Check(env->fs->Create(path));
    row.Check(env->fs->Unlink(path));
  }
}

void BM_StatCold(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  std::string path = Fresh(env, "s");
  if (!row.Check(env->fs->Create(path))) {
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    row.Check(env->fs->DropCaches());
    state.ResumeTiming();
    row.Check(env->fs->Stat(path));
  }
}

void BM_StatWarm(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  std::string path = Fresh(env, "w");
  if (!row.Check(env->fs->Create(path))) {
    return;
  }
  for (auto _ : state) {
    row.Check(env->fs->Stat(path));
  }
}

void BM_Symlink(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  for (auto _ : state) {
    row.Check(env->fs->Symlink("/ops/target", Fresh(env, "l")));
  }
}

void BM_Rename(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  std::string path = Fresh(env, "r");
  if (!row.Check(env->fs->Create(path))) {
    return;
  }
  for (auto _ : state) {
    std::string next = Fresh(env, "r");
    row.Check(env->fs->Rename(path, next));
    path = next;
  }
}

void BM_ReadWarm64K(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  auto ino = env->fs->Create(Fresh(env, "rw"));
  if (!row.Check(ino) || !row.Check(env->fs->Write(*ino, 0, Bytes(64 * 1024, 0x5A)))) {
    return;
  }
  Bytes buf;
  for (auto _ : state) {
    row.CheckRead(env->fs->Read(*ino, 0, 64 * 1024, &buf), 64 * 1024);
  }
}

void BM_ReadCold64K(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  auto ino = env->fs->Create(Fresh(env, "rc"));
  if (!row.Check(ino) || !row.Check(env->fs->Write(*ino, 0, Bytes(64 * 1024, 0x5A))) ||
      !row.Check(env->fs->Fsync(*ino))) {
    return;
  }
  Bytes buf;
  for (auto _ : state) {
    state.PauseTiming();
    row.Check(env->fs->DropCaches());
    state.ResumeTiming();
    row.CheckRead(env->fs->Read(*ino, 0, 64 * 1024, &buf), 64 * 1024);
  }
}

void BM_AppendFsync1K(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  auto ino = env->fs->Create(Fresh(env, "a"));
  if (!row.Check(ino)) {
    return;
  }
  uint64_t off = 0;
  Bytes data(1024, 0x42);
  for (auto _ : state) {
    row.Check(env->fs->Write(*ino, off, data));
    row.Check(env->fs->Fsync(*ino));
    off += data.size();
    if (off > 48 * 1024) {
      state.PauseTiming();
      row.Check(env->fs->Truncate(*ino, 0));
      off = 0;
      state.ResumeTiming();
    }
  }
}

// Large sequential transfers (not in the paper's Table 2, tracked here so the
// scatter-gather Petal client's large-transfer speedup is visible across
// revisions). Cold reads so every iteration goes to the Petal servers.
void BM_ReadSeq1M(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  constexpr size_t kSize = 1 << 20;
  auto ino = env->fs->Create(Fresh(env, "seq"));
  if (!row.Check(ino) || !row.Check(env->fs->Write(*ino, 0, Bytes(kSize, 0x5A))) ||
      !row.Check(env->fs->Fsync(*ino))) {
    return;
  }
  Bytes buf;
  for (auto _ : state) {
    state.PauseTiming();
    row.Check(env->fs->DropCaches());
    state.ResumeTiming();
    row.CheckRead(env->fs->Read(*ino, 0, kSize, &buf), kSize);
  }
  state.SetBytesProcessed(state.iterations() * kSize);
}

void BM_WriteSeq1M(benchmark::State& state) {
  Row row(state);
  if (!row.ok()) {
    return;
  }
  Env* env = row.env();
  constexpr size_t kSize = 1 << 20;
  auto ino = env->fs->Create(Fresh(env, "seqw"));
  if (!row.Check(ino)) {
    return;
  }
  Bytes data(kSize, 0x6B);
  for (auto _ : state) {
    row.Check(env->fs->Write(*ino, 0, data));
    row.Check(env->fs->Fsync(*ino));
    state.PauseTiming();
    row.Check(env->fs->Truncate(*ino, 0));
    row.Check(env->fs->Fsync(*ino));
    state.ResumeTiming();
  }
  state.SetBytesProcessed(state.iterations() * kSize);
}

void Register(const char* name, void (*fn)(benchmark::State&), int iterations = 60) {
  struct Cfg {
    const char* label;
    int frangipani;
    int nvram;
  };
  const Cfg cfgs[] = {{"AdvFS_Raw", 0, 0},
                      {"AdvFS_NVR", 0, 1},
                      {"Frangipani_Raw", 1, 0},
                      {"Frangipani_NVR", 1, 1}};
  for (const Cfg& c : cfgs) {
    benchmark::RegisterBenchmark((std::string(name) + "/" + c.label).c_str(), fn)
        ->Args({c.frangipani, c.nvram})
        ->Unit(benchmark::kMicrosecond)
        ->Iterations(iterations);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Register("Create", BM_Create);
  Register("Mkdir", BM_Mkdir);
  Register("UnlinkCreatePair", BM_UnlinkCreatePair);
  Register("StatWarm", BM_StatWarm);
  Register("StatCold", BM_StatCold);
  Register("Symlink", BM_Symlink);
  Register("Rename", BM_Rename);
  Register("ReadWarm64K", BM_ReadWarm64K);
  Register("ReadCold64K", BM_ReadCold64K);
  Register("AppendFsync1K", BM_AppendFsync1K);
  Register("ReadSeq1M", BM_ReadSeq1M, /*iterations=*/8);
  Register("WriteSeq1M", BM_WriteSeq1M, /*iterations=*/8);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Per-op / per-layer latency breakdowns accumulated by the tracing layer
  // during the run above.
  WriteMetricsJson("table2_ops");
  if (g_failed_rows > 0) {
    std::fprintf(stderr, "%d benchmark rows had failed ops\n", g_failed_rows);
    return 1;
  }
  return 0;
}
