#include "src/fs/decommit_worker.h"

#include "src/obs/recorder.h"

namespace frangipani {

DecommitWorker::DecommitWorker(std::function<void(uint32_t seg, bool own)> finish,
                               uint32_t node)
    : finish_(std::move(finish)), node_(node), thread_([this] { Run(); }) {}

DecommitWorker::~DecommitWorker() { Stop(); }

void DecommitWorker::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void DecommitWorker::Add(uint32_t seg, bool own) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    queued_[seg] |= own;
    ++added_;
  }
  cv_.notify_all();
}

void DecommitWorker::Drain() {
  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t target = added_;
  obs::WaitAsSpan(cv_, lk, [&] { return stop_ || done_ >= target; }, obs::Layer::kFs,
                  "fs.decommit.drain", node_, "queued", target - done_);
}

void DecommitWorker::Hold(bool hold) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    hold_ = hold;
  }
  cv_.notify_all();
}

void DecommitWorker::BeginSending() {
  std::lock_guard<std::mutex> guard(mu_);
  sending_ = true;
}

void DecommitWorker::EndSending() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    sending_ = false;
  }
  cv_.notify_all();
}

bool DecommitWorker::Revoked() {
  std::lock_guard<std::mutex> guard(mu_);
  return revoked_;
}

void DecommitWorker::OnSegmentRevoked(uint32_t seg) {
  std::unique_lock<std::mutex> lk(mu_);
  if (active_ != seg) {
    return;
  }
  revoked_ = true;
  obs::WaitAsSpan(cv_, lk, [&] { return active_ != seg || !sending_; }, obs::Layer::kFs,
                  "fs.decommit.revoke_wait", node_, "seg", seg);
}

void DecommitWorker::Run() {
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_.wait(lk, [&] { return stop_ || (!hold_ && !queued_.empty()); });
    if (stop_) {
      return;
    }
    std::map<uint32_t, bool> batch;
    batch.swap(queued_);
    const uint64_t ticket = added_;
    for (const auto& [seg, own] : batch) {
      if (stop_) {
        return;
      }
      active_ = seg;
      revoked_ = false;
      lk.unlock();
      finish_(seg, own);
      lk.lock();
      active_ = kNoSeg;
      sending_ = false;
      cv_.notify_all();
    }
    done_ = ticket;
    cv_.notify_all();
  }
}

}  // namespace frangipani
