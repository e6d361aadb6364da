// Unified metrics registry: named, typed counters / gauges / histograms.
//
// Registration (GetCounter etc.) takes a mutex but returns a pointer that is
// stable for the registry's lifetime, so components look their metrics up
// once at construction and the recording hot path is a single relaxed atomic
// op — no lock, no map lookup.
//
// Naming convention: dot-separated, lowercase, layer first —
//   fs.cache.hits, lock.acquire.sticky, petal.read_bytes, net.n3.msgs,
//   op.create.total_us. Per-node metrics embed the node id as "n<id>".
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/base/histogram.h"

namespace frangipani {
namespace obs {

class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  // Monotonic high-water mark: raises the gauge to `v` if it is larger.
  // Used for e.g. peak in-flight counts so a run's maximum concurrency is
  // still visible after the fact.
  void Max(int64_t v) {
    int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

class MetricsRegistry {
 public:
  // Find-or-create. Returned pointers stay valid for the registry's
  // lifetime; metrics are never erased.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // One "name value" (counters/gauges) or "name count=... mean=... p50=...
  // p99=... max=..." (histograms) line per metric, sorted by name.
  std::string ExportText() const;

  // {"counters":{...},"gauges":{...},"histograms":{"name":{"count":...,
  //  "sum":...,"mean":...,"p50":...,"p90":...,"p99":...,"max":...}}}
  std::string ExportJson() const;

  // Flat numeric view of every metric: counters and gauges under their own
  // names, histograms as "<name>.count" and "<name>.sum" (percentiles stay
  // in ExportJson). Sorted by name.
  void SnapshotValues(std::map<std::string, double>* out) const;

  // Zeroes every metric (pointers stay valid). Benches call this between
  // configs so sidecars describe one run.
  void ResetAll();

  // Process-wide default registry used by the runtime layers.
  static MetricsRegistry* Default();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace frangipani

#endif  // SRC_OBS_METRICS_H_
