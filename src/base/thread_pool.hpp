// A reusable fixed-size worker pool. The repo previously spun up ad-hoc
// std::threads per parallel evaluation call; thread creation is ~50µs on
// Linux, which dwarfs small-document evaluations and multiplies under a
// serving workload. This pool is created once and shared.
//
// ParallelFor is group-structured: each call owns a private group of index
// tasks. Pool workers claim indices from whichever group they dequeue, but
// the *calling* thread only ever claims indices of its own group while it
// waits. That is what makes nesting safe (a pool task may itself call
// ParallelFor — a SubmitBatch or a ParallelPdaEvaluator run issued from a
// pool task forks onto the same pool; the nested caller can always finish
// its own group single-handedly, so progress is guaranteed even on a pool
// of width 1) and what keeps return latency
// bounded by the caller's own work: a slow unrelated task queued by someone
// else is never stolen by a ParallelFor caller, so it cannot delay that
// caller's return (it used to — see thread_pool_test's
// ParallelForIsNotDelayedByUnrelatedSlowTask regression).
//
// Completion wake-ups are group-local: the last finisher signals the one
// condition variable of its own group instead of broadcasting on the pool's
// queue cv (which used to wake every idle worker per finished group).
//
// Exception contract:
//   * A task body passed to ParallelFor may throw. The first exception (in
//     completion order) is captured and rethrown on the ParallelFor caller;
//     remaining indices of that group are abandoned (claimed but not run).
//     Evaluator code that returns Status keeps returning Status — the
//     rethrow path exists so a defect cannot std::terminate the service.
//   * A detached Submit() task must not throw. If one does, the exception
//     is swallowed by the worker loop (the pool stays alive) and counted in
//     detached_exceptions() so tests and monitoring can observe the defect.

#ifndef GKX_BASE_THREAD_POOL_HPP_
#define GKX_BASE_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gkx {

class ThreadPool {
 public:
  /// `threads` = 0 uses std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int threads = 0);

  /// Joins after draining already-queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a detached task; returns immediately. The task must not
  /// throw — if it does, the exception is contained (never std::terminate)
  /// and counted in detached_exceptions().
  void Submit(std::function<void()> task);

  /// Runs fn(0), ..., fn(tasks-1) across the pool and blocks until all have
  /// finished. The calling thread participates (it claims indices of this
  /// call's own group while waiting — never unrelated queued work), so this
  /// is safe to call from inside a pool task. If any fn() throws, the first
  /// exception is rethrown here after the group quiesces.
  void ParallelFor(int tasks, const std::function<void(int)>& fn);

  /// Detached Submit() tasks that threw (contract violations, contained).
  int64_t detached_exceptions() const {
    return detached_exceptions_.load(std::memory_order_relaxed);
  }

  /// Process-wide lazily-constructed pool (hardware width).
  static ThreadPool& Shared();

 private:
  /// One ParallelFor call: workers and the caller claim indices from
  /// `next`; the last finisher signals `done_cv`. Shared-ptr'd so a proxy
  /// task dequeued after the caller already returned (e.g. all indices were
  /// claimed by the caller before any worker woke) stays valid.
  struct Group {
    const std::function<void(int)>* fn = nullptr;  // outlives the group
    int total = 0;
    std::atomic<int> next{0};      // next index to claim
    std::atomic<int> finished{0};  // indices run (or abandoned after error)
    std::atomic<bool> abandoned{false};  // first exception seen: drain fast
    std::mutex mu;                 // guards error + done signalling
    std::condition_variable done_cv;
    std::exception_ptr error;
    bool done = false;
  };

  void WorkerLoop();

  /// Claims and runs indices of `group` until none remain. Returns after
  /// contributing; completion is signalled by whoever finishes the last
  /// index.
  static void DrainGroup(const std::shared_ptr<Group>& group);

  std::mutex mu_;
  std::condition_variable cv_;
  /// Detached tasks and group proxies. A proxy entry has a non-null group
  /// and drains it; a detached entry has a null group and runs `task`.
  struct Entry {
    std::function<void()> task;      // detached only
    std::shared_ptr<Group> group;    // proxy only
  };
  std::deque<Entry> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<int64_t> detached_exceptions_{0};
};

}  // namespace gkx

#endif  // GKX_BASE_THREAD_POOL_HPP_
