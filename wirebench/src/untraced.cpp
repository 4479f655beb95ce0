// --trace 0: the end-to-end metrics. Nothing but the wire client touches the
// served stack from its set-up to the end of the timed window.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench.hpp"
#include "bench/bench_util.hpp"

namespace wirebench {

RunResult RunUntraced(const RunOptions& options, const Inputs& inputs) {
  RunResult result;
  const std::string wal_dir = options.work_dir + "/wal";
  auto fail = [&result](const std::string& what) {
    result.problems.push_back(what);
    return result;
  };

  // The first set-up serves the window.
  Mirror mirror(inputs);
  AnswerChecker checker;
  Runner runner(inputs, &result.tally, &checker, &mirror);
  NotifyLog notes;  // outlives the stack: subscriptions call into it
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s;
  auto first = SetUpStack(&runner, &notes, wal_dir, &stack);
  if (!first.ok()) return fail("set-up: " + first.status().ToString());
  setup_s.push_back(*first);

  Samples window = runner.Window(stack.get(), notes, options.seconds, 0, nullptr);
  // Peak RSS of one served stack plus the client's inputs, taken before the
  // set-ups below leave freed arenas behind.
  const double rss_mb =
      static_cast<double>(gkx::bench::PeakRssBytes()) / (1 << 20);
  if (window.revision_drift) result.problems.push_back("store revisions drifted");

  double recover_s = 0;
  auto lost = runner.CrashAndRecover(std::move(stack), wal_dir, &recover_s);
  if (!lost.ok()) {
    result.problems.push_back("recovery: " + lost.status().ToString());
  } else if (*lost > 0) {
    result.problems.push_back(std::to_string(*lost) +
                              " documents lost acknowledged updates");
  }
  PinCallingThread(CpuRole::kAll);
  gkx::ThreadPool pool(kPoolWidth);
  VerifyAnswers(inputs, mirror, checker, &pool, &result);

  // More set-ups, timed only; setup_s is the median. Each has its own
  // mirror and checker: the window moved the first one's documents on.
  for (int i = 1; i < kSetupRepeats; ++i) {
    Mirror fresh_mirror(inputs);
    AnswerChecker fresh_checker;
    Runner fresh(inputs, &result.tally, &fresh_checker, &fresh_mirror);
    NotifyLog fresh_notes;
    std::unique_ptr<Stack> again;
    auto timed = SetUpStack(&fresh, &fresh_notes, wal_dir, &again);
    if (!timed.ok()) return fail("set-up: " + timed.status().ToString());
    setup_s.push_back(*timed);
    again.reset();
    PinCallingThread(CpuRole::kAll);
    VerifyAnswers(inputs, fresh_mirror, fresh_checker, &pool, &result);
  }

  // The end-to-end metrics are taken over the window's calm slices; the
  // same figures over every slice are printed beside them.
  const std::vector<bool> calm = CalmSlices(window);
  const std::vector<bool> all(calm.size(), true);
  const std::vector<uint64_t> reads = window.read_rtt.In(calm);
  const std::vector<uint64_t> updates = window.update_rtt.In(calm);
  const std::vector<uint64_t> notifies = window.notify_delay.In(calm);
  Metrics& m = result.metrics;
  m.Add("answers_per_s", SliceAnswersPerSecond(window, calm), "answers/s");
  m.Add("read_p50_us", QuantileUs(reads, 0.50), "us");
  m.Add("read_p90_us", QuantileUs(reads, 0.90), "us");
  m.Add("update_p50_us", QuantileUs(updates, 0.50), "us");
  m.Add("notify_p50_us", QuantileUs(notifies, 0.50), "us");
  m.Add("cpu_us_per_op", SliceCpuUsPerOp(window, calm), "us");
  m.Add("rss_mb", rss_mb, "MiB");
  m.Add("setup_s", Median(setup_s), "s");

  const int64_t steal = window.marks.back().steal_ticks -
                        window.marks.front().steal_ticks;
  std::printf("  window: %.3f s wall, %.3f s cpu, %lld answers, %lld updates, "
              "%zu slices, %zd calm; host steal %lld ticks\n",
              window.wall_s, window.cpu_s, static_cast<long long>(window.answers),
              static_cast<long long>(window.updates), calm.size(),
              std::count(calm.begin(), calm.end(), true),
              static_cast<long long>(steal));
  std::printf("  calm-slice samples: %zu read round trips, %zu updates, %zu "
              "notifications\n",
              reads.size(), updates.size(), notifies.size());
  std::printf("  calm-slice read round trip quantiles (us): p10 %.1f, p25 %.1f, "
              "p50 %.1f, p75 %.1f, p90 %.1f, p99 %.1f\n",
              QuantileUs(reads, 0.10), QuantileUs(reads, 0.25),
              QuantileUs(reads, 0.50), QuantileUs(reads, 0.75),
              QuantileUs(reads, 0.90), QuantileUs(reads, 0.99));
  std::printf("  every slice: answers_per_s %.1f, read_p50_us %.1f, "
              "read_p90_us %.1f, update_p50_us %.1f, notify_p50_us %.1f, "
              "cpu_us_per_op %.3f\n",
              SliceAnswersPerSecond(window, all),
              QuantileUs(window.read_rtt.ns, 0.50),
              QuantileUs(window.read_rtt.ns, 0.90),
              QuantileUs(window.update_rtt.ns, 0.50),
              QuantileUs(window.notify_delay.ns, 0.50),
              SliceCpuUsPerOp(window, all));
  std::printf("  setups:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s; subscription backlog at end %lld; WAL reopen %.4f s\n",
              static_cast<long long>(window.backlog), recover_s);
  return result;
}

}  // namespace wirebench
