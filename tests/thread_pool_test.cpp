// ThreadPool: task execution, ParallelFor coverage, nesting (the service
// fans batches out while the parallel PDA engine fans candidates out on the
// same pool — progress must be guaranteed even at width 1), the
// group-isolation tail-latency regression, the exception contract, and
// worker placement.

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "base/thread_pool.hpp"

namespace gkx {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(257);
  pool.ParallelFor(257, [&seen](int i) { seen[static_cast<size_t>(i)]++; });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, ParallelForMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.ParallelFor(64, [&sum](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Width 1 is the adversarial case: the outer ParallelFor runs on the only
  // pool thread's queue, and inner ParallelFors must make progress through
  // caller helping alone.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&pool, &leaves](int) {
    pool.ParallelFor(4, [&leaves](int) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 16);
}

TEST(ThreadPoolTest, ZeroAndOneTaskEdgeCases) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// Regression: the helping loop used to pop *any* queued task — with a slow
// unrelated task at the queue front, a ParallelFor caller would steal it
// and not return until it finished, long after its own group was done.
// Group-isolated helping bounds ParallelFor return latency by the group's
// own work.
TEST(ThreadPoolTest, ParallelForIsNotDelayedByUnrelatedSlowTask) {
  ThreadPool pool(1);
  constexpr auto kSlow = std::chrono::milliseconds(400);
  std::atomic<bool> slow_done{false};
  // The slow task sits at the queue front; the single worker (or, in the
  // old code, the helping caller) picks it up first.
  pool.Submit([&slow_done, kSlow] {
    std::this_thread::sleep_for(kSlow);
    slow_done.store(true);
  });
  std::atomic<int> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  pool.ParallelFor(8, [&ran](int) { ran.fetch_add(1); });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(ran.load(), 8);
  // The caller must complete its own 8 trivial indices without waiting out
  // the unrelated 400ms task. Generous margin for sanitizer/CI jitter.
  EXPECT_LT(elapsed, kSlow / 2);
  // Drain the slow task so its captures outlive it.
  while (!slow_done.load()) std::this_thread::yield();
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(16,
                       [&ran](int i) {
                         ran.fetch_add(1);
                         if (i == 3) throw std::runtime_error("task failure");
                       }),
      std::runtime_error);
  // Every index was claimed (run or abandoned) before the rethrow — the
  // group quiesced, so the lambda's captures are safe to destroy.
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 16);
  // The pool survives and stays usable.
  std::atomic<int> after{0};
  pool.ParallelFor(4, [&after](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPoolTest, ThrowingDetachedTaskIsContainedAndCounted) {
  ThreadPool pool(1);
  const int64_t before = pool.detached_exceptions();
  pool.Submit([] { throw std::runtime_error("detached failure"); });
  // The worker must survive; a follow-up ParallelFor proves liveness.
  std::atomic<int> ran{0};
  pool.ParallelFor(4, [&ran](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  while (pool.detached_exceptions() == before) std::this_thread::yield();
  EXPECT_EQ(pool.detached_exceptions(), before + 1);
}

TEST(ThreadPoolTest, NestedParallelForUnderConcurrentGroups) {
  // Two groups interleave on a width-2 pool, each nesting further
  // ParallelFors; every leaf must run exactly once per group.
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(4, [&pool, &leaves](int) {
    pool.ParallelFor(8, [&leaves](int) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 32);
}

#if defined(__linux__)
std::vector<int> CallingThreadCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void SetCallingThreadCpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  ASSERT_EQ(sched_setaffinity(0, sizeof set, &set), 0);
}

// Builds a pool of `width` workers from a thread restricted to `cpus`.
std::unique_ptr<ThreadPool> PoolBuiltOn(const std::vector<int>& cpus,
                                        int width) {
  const std::vector<int> own = CallingThreadCpus();
  SetCallingThreadCpus(cpus);
  auto pool = std::make_unique<ThreadPool>(width);
  SetCallingThreadCpus(own);
  return pool;
}

// The CPU set of every worker, sorted: one ParallelFor index per worker and
// one for the caller, each held until all have been claimed, so every
// thread runs exactly one.
std::vector<std::vector<int>> WorkerCpuSets(ThreadPool& pool) {
  const int width = pool.thread_count() + 1;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::vector<std::vector<int>> sets;
  pool.ParallelFor(width, [&](int) {
    arrived.fetch_add(1);
    while (arrived.load() < width) std::this_thread::yield();
    if (std::this_thread::get_id() == caller) return;
    std::vector<int> cpus = CallingThreadCpus();
    std::lock_guard<std::mutex> lock(mu);
    sets.push_back(std::move(cpus));
  });
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(ThreadPoolTest, WorkersTakeOneCpuEachOfTheCreatorsSet) {
  const std::vector<int> all = CallingThreadCpus();
  if (all.size() < 2) GTEST_SKIP() << "needs two CPUs";
  // The last two CPUs this process may use: worker i runs on the i-th.
  const std::vector<int> set(all.end() - 2, all.end());
  auto pool = PoolBuiltOn(set, 2);
  EXPECT_EQ(WorkerCpuSets(*pool),
            (std::vector<std::vector<int>>{{set[0]}, {set[1]}}));
}

TEST(ThreadPoolTest, PoolWiderThanTheCreatorsSetKeepsTheSet) {
  const std::vector<int> all = CallingThreadCpus();
  if (all.size() < 2) GTEST_SKIP() << "needs two CPUs";
  const std::vector<int> set(all.end() - 2, all.end());
  auto pool = PoolBuiltOn(set, 3);
  EXPECT_EQ(WorkerCpuSets(*pool),
            (std::vector<std::vector<int>>{set, set, set}));
}
#endif

TEST(ThreadPoolTest, SharedPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::Shared().ParallelFor(8, [&count](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
  EXPECT_GE(ThreadPool::Shared().thread_count(), 1);
}

}  // namespace
}  // namespace gkx
