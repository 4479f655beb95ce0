// The "gkx-stats-v2" document builder, decoupled from which service owns
// the inputs: a QueryService exports its own snapshot; the
// ShardedQueryService router exports the cross-shard aggregate (histograms
// merged bucket-exact, counters summed) plus one sub-document per shard
// under "shards". Keeping one builder is what keeps the aggregate and the
// per-shard breakdowns structurally identical — tools/check_stats_json
// validates both with the same code.

#ifndef GKX_SERVICE_STATS_JSON_HPP_
#define GKX_SERVICE_STATS_JSON_HPP_

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/query_service.hpp"
#include "service/stats.hpp"

namespace gkx::service {

struct StatsExportInputs {
  ServiceStats stats;
  double slow_query_threshold_ms = 0.0;
  std::vector<obs::SlowQuery> slow_queries;
  const obs::MetricRegistry* registry = nullptr;  // required
};

/// Builds the structured stats document (schema/service/plan_cache/... —
/// every section the schema promises, see tools/check_stats_json).
obs::json::Value BuildStatsDocument(const StatsExportInputs& inputs);

/// kJson: the document pretty-printed; kText: its numeric leaves flattened
/// into `gkx_<path> value` lines (Prometheus-style).
std::string RenderStatsDocument(const obs::json::Value& root,
                                StatsFormat format);

}  // namespace gkx::service

#endif  // GKX_SERVICE_STATS_JSON_HPP_
