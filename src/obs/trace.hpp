// Request-tracing support: a monotonic-clock helper, per-request trace
// options, and a bounded in-memory slow-query log.

#ifndef GKX_OBS_TRACE_HPP_
#define GKX_OBS_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gkx::obs {

/// Monotonic now in nanoseconds; the one clock all spans use.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TraceOptions {
  /// Runtime switch for the sampled per-stage spans, the update.*
  /// histograms and the slow-query log. Total request latency and the
  /// per-route histograms are always recorded.
  bool tracing = true;
  /// Requests slower than this land in the slow-query log.
  double slow_query_ms = 5.0;
  /// Ring capacity of the slow-query log (oldest entries evicted).
  size_t slow_query_capacity = 64;
};

/// One slow request, with enough context to re-run it: the canonical query
/// text, the document it ran against (and at which revision), the total
/// time, which routes executed, and the per-stage wall-clock breakdown.
struct SlowQuery {
  std::string doc_key;
  std::string query;  // canonical form
  uint64_t revision = 0;
  double total_ms = 0.0;
  /// Routes executed, in segment order ("pf-indexed", "pf-frontier",
  /// "core-linear", "cvt"); empty for an answer-cache hit.
  std::vector<std::string> routes;
  std::vector<std::pair<std::string, double>> stages_ms;  // (stage, ms)
};

/// Bounded ring of the most recent slow queries. Record() takes a mutex but
/// only fires for requests already past the threshold, so it is off the
/// common path. `recorded()` counts all threshold crossings, including
/// entries since evicted.
class SlowQueryLog {
 public:
  SlowQueryLog(double threshold_ms, size_t capacity)
      : threshold_ms_(threshold_ms), capacity_(capacity) {}

  /// Cheap pre-check callers use before building a SlowQuery.
  bool Eligible(double total_ms) const {
    return capacity_ > 0 && total_ms >= threshold_ms_;
  }

  void Record(SlowQuery entry);

  std::vector<SlowQuery> Snapshot() const;

  int64_t recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recorded_;
  }

  double threshold_ms() const { return threshold_ms_; }

 private:
  const double threshold_ms_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<SlowQuery> entries_;
  int64_t recorded_ = 0;
};

}  // namespace gkx::obs

#endif  // GKX_OBS_TRACE_HPP_
