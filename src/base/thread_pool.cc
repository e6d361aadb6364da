#include "src/base/thread_pool.h"

#include "src/base/logging.h"

namespace frangipani {

ThreadPool::ThreadPool(int num_threads) {
  FGP_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    FGP_CHECK(!stop_) << "Submit after shutdown";
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::SubmitFront(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    FGP_CHECK(!stop_) << "Submit after shutdown";
    queue_.push_front(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) {
        return;
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    fn();
    {
      std::lock_guard<std::mutex> guard(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

PeriodicTask::PeriodicTask(Duration period, std::function<void()> fn, bool run_first)
    : period_(period), fn_(std::move(fn)) {
  thread_ = std::thread([this, run_first] {
    if (run_first) {
      fn_();
    }
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (cv_.wait_for(lk, period_, [this] { return stop_; })) {
        return;
      }
      lk.unlock();
      fn_();
      lk.lock();
    }
  });
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace frangipani
