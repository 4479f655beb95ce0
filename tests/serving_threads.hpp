// Test helper: records which thread served each request of a QueryService
// (or of every shard of a router) through the answer_tap hook, so a test
// can pin where a batch ran. The tap runs on every successful answer, a
// cache hit or a fresh evaluation alike.

#ifndef GKX_TESTS_SERVING_THREADS_HPP_
#define GKX_TESTS_SERVING_THREADS_HPP_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "eval/engine.hpp"

namespace gkx::service {

class ServingThreads {
 public:
  /// The answer tap to install; it records into this object, which must
  /// outlive every service that holds the tap.
  std::function<void(eval::Engine::Answer*)> Tap() {
    return [this](eval::Engine::Answer*) { Enter(); };
  }

  /// Forgets what was recorded, disarms the latch and ends any dwell.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.clear();
    calls_ = 0;
    latch_armed_ = false;
    timed_out_ = false;
    dwell_ = std::chrono::microseconds(0);
  }

  /// Each tap call then sleeps `dwell` after recording. Served requests
  /// stay cheap next to a pool wake-up otherwise, so a batch that forked
  /// could still end up served by the caller alone; a dwell gives the woken
  /// threads requests to claim.
  void Dwell(std::chrono::microseconds dwell) {
    std::lock_guard<std::mutex> lock(mu_);
    dwell_ = dwell;
  }

  /// From the second tap call on, each call blocks until a second thread
  /// has entered the tap. The first call passes: a batch serves its first
  /// request on the calling thread before it knows whether to fork. A
  /// batch that only one thread serves waits `timeout` once, sets
  /// timed_out(), and then passes through, so it fails instead of hanging.
  void ArmLatch(std::chrono::milliseconds timeout) {
    std::lock_guard<std::mutex> lock(mu_);
    latch_armed_ = true;
    timeout_ = timeout;
  }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }
  int64_t calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    ++calls_;
    threads_.insert(std::this_thread::get_id());
    const std::chrono::microseconds dwell = dwell_;
    if (threads_.size() >= 2) {
      cv_.notify_all();
    } else if (latch_armed_ && calls_ > 1 && !timed_out_ &&
               !cv_.wait_for(lock, timeout_,
                             [this] { return threads_.size() >= 2; })) {
      timed_out_ = true;
    }
    lock.unlock();
    if (dwell.count() > 0) std::this_thread::sleep_for(dwell);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::set<std::thread::id> threads_;
  int64_t calls_ = 0;
  bool latch_armed_ = false;
  std::chrono::milliseconds timeout_{0};
  bool timed_out_ = false;
  std::chrono::microseconds dwell_{0};
};

}  // namespace gkx::service

#endif  // GKX_TESTS_SERVING_THREADS_HPP_
