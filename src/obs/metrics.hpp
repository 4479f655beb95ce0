// Named-metric registry: counters, gauges, and histograms addressable by
// string name. Registration (GetCounter/GetHistogram) takes a mutex but
// returns a stable pointer, so hot paths register once at construction and
// then touch only lock-free atomics. Dotted names ("update.splice_ms")
// group into nested objects in the JSON export.

#ifndef GKX_OBS_METRICS_HPP_
#define GKX_OBS_METRICS_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace gkx::obs {

/// Monotonic counter; Add is a relaxed atomic fetch_add and returns the
/// value before it (a request sequence number, for sampling).
class Counter {
 public:
  int64_t Add(int64_t delta = 1) {
    return value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class MetricRegistry {
 public:
  /// Returns the counter registered under `name`, creating it on first use.
  /// The pointer stays valid for the registry's lifetime.
  Counter* GetCounter(std::string_view name);

  /// Same for histograms. The unit is fixed at first registration;
  /// re-registering with a different unit is a programming error (checked).
  Histogram* GetHistogram(std::string_view name,
                          Histogram::Unit unit = Histogram::Unit::kNanos);

  /// Registers a pull gauge: `fn` is invoked at export time. Re-setting an
  /// existing name replaces the function.
  void SetGauge(std::string_view name, std::function<double()> fn);

  // Export accessors — sorted by name (std::map iteration order).
  std::vector<std::pair<std::string, int64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramSummary>> HistogramSummaries()
      const;

  /// Folds this registry into `out`: counters add into same-named counters,
  /// histograms merge bucket-exact (units must agree across registries —
  /// checked), and gauges are sampled now and added into a constant gauge in
  /// `out`. Percentiles of N merged registries are therefore exact, not
  /// summary-of-summaries approximations. Safe against concurrent recording
  /// on either side (the merged snapshot is per-bucket atomic, like
  /// Histogram::Merge).
  void MergeInto(MetricRegistry* out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::function<double()>> gauges_;
  /// Running per-gauge sums accumulated by MergeInto (this registry as the
  /// merge *target*) so repeated merges from several sources add up.
  std::map<std::string, double> merged_gauge_sums_;
};

}  // namespace gkx::obs

#endif  // GKX_OBS_METRICS_HPP_
