// Fixed-size worker pool plus a PeriodicTask helper for demons (sync demon,
// lease renewal, heartbeats). Both join cleanly on destruction.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/clock.h"

namespace frangipani {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> fn);
  // Queues `fn` ahead of all the work already waiting.
  void SubmitFront(std::function<void()> fn);

  // Blocks until all submitted work has finished (the queue is empty and no
  // worker is executing).
  void Drain();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drain_cv_;
  std::deque<std::function<void()>> queue_;
  int active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Runs `fn` every `period` on a dedicated thread until destroyed or Stop()ed.
// The first run happens after one period, or at once with `run_first`.
// Stop() joins and is idempotent.
class PeriodicTask {
 public:
  PeriodicTask(Duration period, std::function<void()> fn, bool run_first = false);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();
  // Runs the task body immediately on the caller's thread (used by tests).
  void RunNow() { fn_(); }

 private:
  Duration period_;
  std::function<void()> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace frangipani

#endif  // SRC_BASE_THREAD_POOL_H_
