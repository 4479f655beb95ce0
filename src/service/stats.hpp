// Service-level observability primitives shared by the stats snapshot and
// the exporter: the latency summary read out of an obs::Histogram
// (all-time, exact-by-bucket — see obs/histogram.hpp) and the one store of
// route facts, RouteHistograms.

#ifndef GKX_SERVICE_STATS_HPP_
#define GKX_SERVICE_STATS_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/histogram.hpp"
#include "plan/ir.hpp"

namespace gkx::service {

/// All-time percentile summary of request latencies, in milliseconds.
struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

/// Converts an obs histogram summary (kNanos histograms already display in
/// milliseconds) into the service-facing latency struct.
inline LatencySummary ToLatencySummary(const obs::HistogramSummary& h) {
  LatencySummary out;
  out.count = h.count;
  out.p50_ms = h.p50;
  out.p90_ms = h.p90;
  out.p99_ms = h.p99;
  out.p999_ms = h.p999;
  out.max_ms = h.max;
  out.mean_ms = h.mean;
  return out;
}

/// Output flavour of QueryService::ExportStats.
enum class StatsFormat {
  kText,  // flat `gkx_section_name value` lines (Prometheus-style)
  kJson,  // the structured "gkx-stats-v2" document
};

/// The one record of how often and how long each served route ran: one
/// lock-free histogram per route, indexed by route. Slot 0 is the
/// DocumentIndex fast path ("pf-indexed"); slots 1-3 are the plan::Route
/// engines in enum order ("pf-frontier", "core-linear", "cvt"). Recording
/// is a single Histogram::Record — no lock, no string key.
class RouteHistograms {
 public:
  obs::Histogram& indexed() { return hists_[0]; }
  obs::Histogram& of(plan::Route route) {
    return hists_[1 + static_cast<size_t>(route)];
  }

  /// Per-route summaries keyed by route name — always all four routes.
  std::map<std::string, obs::HistogramSummary> Summaries() const {
    std::map<std::string, obs::HistogramSummary> out;
    for (size_t i = 0; i < kRoutes; ++i) {
      out.emplace(Name(i), hists_[i].Summary());
    }
    return out;
  }

  /// Folds every route into the same route of `out`, bucket-exact.
  void MergeInto(RouteHistograms* out) const {
    for (size_t i = 0; i < kRoutes; ++i) out->hists_[i].Merge(hists_[i]);
  }

 private:
  static constexpr size_t kRoutes = 4;

  /// "pf-indexed", then plan::RouteName of each engine.
  static std::string_view Name(size_t slot) {
    return slot == 0 ? "pf-indexed"
                     : plan::RouteName(static_cast<plan::Route>(slot - 1));
  }

  std::array<obs::Histogram, kRoutes> hists_;
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_STATS_HPP_
