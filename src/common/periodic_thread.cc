#include "common/periodic_thread.h"

#include <chrono>
#include <utility>

namespace expdb {

PeriodicThread::PeriodicThread(int64_t interval_ms, std::function<void()> tick)
    : tick_(std::move(tick)), interval_ms_(interval_ms > 0 ? interval_ms : 1) {}

PeriodicThread::~PeriodicThread() { Stop(); }

void PeriodicThread::Start() {
  std::lock_guard<std::mutex> guard(mu_);
  if (running_) return;
  stop_ = false;
  thread_ = std::thread(&PeriodicThread::Loop, this);
  running_ = true;
}

void PeriodicThread::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  if (to_join.joinable()) to_join.join();
}

void PeriodicThread::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    reconfigured_ = false;
    if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                     [this] { return stop_ || reconfigured_; })) {
      continue;  // stopping, or restart the wait with the new interval
    }
    // Tick without holding mu_, so mu_ stays a leaf.
    lock.unlock();
    tick_();
    lock.lock();
  }
}

void PeriodicThread::set_interval_ms(int64_t ms) {
  {
    std::lock_guard<std::mutex> guard(mu_);
    interval_ms_ = ms > 0 ? ms : 1;
    reconfigured_ = true;
  }
  Start();
  cv_.notify_all();
}

int64_t PeriodicThread::interval_ms() const {
  std::lock_guard<std::mutex> guard(mu_);
  return interval_ms_;
}

bool PeriodicThread::running() const {
  std::lock_guard<std::mutex> guard(mu_);
  return running_;
}

}  // namespace expdb
