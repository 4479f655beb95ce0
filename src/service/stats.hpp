// Service-level observability primitives shared by the stats snapshot and
// the exporter: the export format and the one store of route facts,
// RouteHistograms. Latency summaries are plain obs::HistogramSummary
// read-outs (all-time, exact-by-bucket — see obs/histogram.hpp).

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
