// The "gkx-stats-v2" document: how a service's MetricRegistry becomes the
// structured stats document ExportStats emits. The registry is the one
// stats store — every number in the document is a metric registered under
// its document path ("service.requests", "routes.cvt", "metrics.wal.bytes"),
// so a router merges its shards' registries (obs::MetricRegistry::MergeInto)
// and builds its aggregate with the same code. ServiceStats
// (query_service.hpp) is read back from the document.

#ifndef GKX_SERVICE_STATS_HPP_
#define GKX_SERVICE_STATS_HPP_

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gkx::service {

/// Output flavour of QueryService::ExportStats.
enum class StatsFormat {
  kText,  // flat `gkx_section_name value` lines (Prometheus-style)
  kJson,  // the structured "gkx-stats-v2" document
};

/// Builds the document: every metric of `registry` nested by its dotted
/// name (histograms as summaries), plus what must not be summed across
/// shards — the settings service.tracing, service.slow_query_threshold_ms
/// and answer_cache.enabled — and the slow-query list.
obs::json::Value BuildStatsDocument(
    const obs::MetricRegistry& registry, const obs::TraceOptions& trace,
    bool answer_cache_enabled, const std::vector<obs::SlowQuery>& slow_queries);

/// kJson: the document pretty-printed; kText: its numeric leaves flattened
/// into `gkx_<path> value` lines (Prometheus-style).
std::string RenderStatsDocument(const obs::json::Value& root,
                                StatsFormat format);

}  // namespace gkx::service

#endif  // GKX_SERVICE_STATS_HPP_
