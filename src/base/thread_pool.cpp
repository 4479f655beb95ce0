#include "base/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

#include <utility>

namespace gkx {
namespace {

// The CPUs the calling thread may run on, ascending; empty where the
// platform does not say.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

void RunCallingThreadOn(int cpu) {
#if defined(__linux__)
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
#else
  (void)cpu;
#endif
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  // One CPU per worker when the creator's CPUs suffice (see the header).
  const std::vector<int> cpus = AllowedCpus();
  const bool spread = cpus.size() >= static_cast<size_t>(threads);
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const int cpu = spread ? cpus[static_cast<size_t>(t)] : -1;
    workers_.emplace_back([this, cpu] {
      if (cpu >= 0) RunCallingThreadOn(cpu);
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Entry{std::move(task), nullptr});
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    if (entry.group != nullptr) {
      DrainGroup(entry.group);
    } else {
      // Detached-task contract: exceptions are contained (the worker — and
      // with it the whole service — must survive a throwing task) and
      // counted so the defect is observable.
      try {
        entry.task();
      } catch (...) {
        detached_exceptions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ThreadPool::DrainGroup(const std::shared_ptr<Group>& group) {
  int contributed = 0;
  while (true) {
    const int i = group->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group->total) break;
    // After the first exception the group is abandoned: remaining indices
    // are claimed and counted but not run, so the caller unblocks at the
    // speed of the claim loop instead of finishing doomed work.
    if (!group->abandoned.load(std::memory_order_relaxed)) {
      try {
        (*group->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(group->mu);
        if (group->error == nullptr) group->error = std::current_exception();
        group->abandoned.store(true, std::memory_order_relaxed);
      }
    }
    ++contributed;
  }
  if (contributed > 0 &&
      group->finished.fetch_add(contributed, std::memory_order_acq_rel) +
              contributed ==
          group->total) {
    // Group-local wake-up: only this group's caller waits on done_cv, so
    // completion no longer broadcasts on the pool-wide queue cv (which used
    // to wake every idle worker once per finished group).
    std::lock_guard<std::mutex> lock(group->mu);
    group->done = true;
    group->done_cv.notify_all();
  }
}

void ThreadPool::ParallelFor(int tasks, const std::function<void(int)>& fn) {
  if (tasks <= 0) return;
  if (tasks == 1) {
    fn(0);
    return;
  }

  auto group = std::make_shared<Group>();
  group->fn = &fn;  // ParallelFor outlives the group: rejoin below is strict
  group->total = tasks;

  // Proxy entries, not one entry per index: a dequeuing worker drains the
  // group via the shared claim counter, so `tasks` can be large without
  // flooding the queue. One proxy per worker saturates the pool.
  const int proxies =
      std::min(tasks - 1, static_cast<int>(workers_.size()));
  if (proxies > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int p = 0; p < proxies; ++p) {
        queue_.push_back(Entry{nullptr, group});
      }
    }
    if (proxies == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  // The caller claims indices of its OWN group only. It never pops the pool
  // queue: an unrelated slow task queued there must not delay this return,
  // and own-group claiming alone guarantees progress (this thread can
  // finish the whole group by itself, including when every pool worker is
  // blocked inside nested ParallelFors of their own).
  DrainGroup(group);

  {
    std::unique_lock<std::mutex> lock(group->mu);
    group->done_cv.wait(lock, [&group] { return group->done; });
  }
  if (group->error != nullptr) std::rethrow_exception(group->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(0);  // leaked: outlives all users
  return *pool;
}

}  // namespace gkx
