// The machine-readable face of the stats surface. The registry is the one
// stats store: BuildStatsDocument nests its metrics by dotted name into the
// "gkx-stats-v2" document and adds the three settings and the slow-query
// list; ReadServiceStats reads the typed snapshot back out of it; the text
// format is its numeric leaves flattened into `gkx_<path> value` lines
// (obs::json::Value::FlattenNumbers), so no view can drift from another.
// QueryService::ExportStats builds from its own registry;
// ShardedQueryService::ExportStats from its shards' merged registries, with
// the per-shard documents embedded (sharded_service.cpp).

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "service/query_service.hpp"
#include "service/stats.hpp"

namespace gkx::service {

namespace {

using obs::json::Value;

Value SummaryJson(const obs::HistogramSummary& s) {
  Value out = Value::Object();
  out["count"] = Value(s.count);
  out["p50"] = Value(s.p50);
  out["p90"] = Value(s.p90);
  out["p99"] = Value(s.p99);
  out["p999"] = Value(s.p999);
  out["max"] = Value(s.max);
  out["mean"] = Value(s.mean);
  return out;
}

obs::HistogramSummary ReadSummary(const Value* summary) {
  obs::HistogramSummary out;
  if (summary == nullptr) return out;
  auto number = [summary](const char* key) {
    const Value* leaf = summary->Find(key);
    return leaf == nullptr ? 0.0 : leaf->AsNumber();
  };
  out.count = static_cast<int64_t>(number("count"));
  out.p50 = number("p50");
  out.p90 = number("p90");
  out.p99 = number("p99");
  out.p999 = number("p999");
  out.max = number("max");
  out.mean = number("mean");
  return out;
}

/// The member of `root` at dotted `name`, creating objects along the way.
Value& Slot(Value* root, std::string_view name) {
  Value* node = root;
  for (size_t dot = name.find('.'); dot != std::string_view::npos;
       dot = name.find('.')) {
    Value& child = (*node)[std::string(name.substr(0, dot))];
    if (!child.is_object()) child = Value::Object();
    node = &child;
    name.remove_prefix(dot + 1);
  }
  return (*node)[std::string(name)];
}

}  // namespace

Value BuildStatsDocument(const obs::MetricRegistry& registry,
                         const obs::TraceOptions& trace,
                         bool answer_cache_enabled,
                         const std::vector<obs::SlowQuery>& slow_queries) {
  Value root = Value::Object();
  root["schema"] = Value("gkx-stats-v2");
  for (const auto& [name, value] : registry.CounterValues()) {
    Slot(&root, name) = Value(value);
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    Slot(&root, name) = Value(value);
  }
  for (const auto& [name, summary] : registry.HistogramSummaries()) {
    Slot(&root, name) = SummaryJson(summary);
  }
  // Settings, not traffic: a merged registry would add them up per shard.
  Slot(&root, "service.tracing") = Value(trace.tracing);
  Slot(&root, "service.slow_query_threshold_ms") = Value(trace.slow_query_ms);
  Slot(&root, "answer_cache.enabled") = Value(answer_cache_enabled);

  Value entries = Value::Array();
  for (const obs::SlowQuery& slow : slow_queries) {
    Value entry = Value::Object();
    entry["doc_key"] = Value(slow.doc_key);
    entry["query"] = Value(slow.query);
    entry["revision"] = Value(slow.revision);
    entry["total_ms"] = Value(slow.total_ms);
    Value routes = Value::Array();
    for (const std::string& route : slow.routes) routes.Append(Value(route));
    entry["routes"] = std::move(routes);
    Value stages = Value::Object();
    for (const auto& [stage, ms] : slow.stages_ms) stages[stage] = Value(ms);
    entry["stages_ms"] = std::move(stages);
    entries.Append(std::move(entry));
  }
  root["slow_queries"] = std::move(entries);
  return root;
}

ServiceStats ReadServiceStats(const Value& document) {
  auto number = [&document](std::string_view path) -> int64_t {
    const Value* leaf = document.FindPath(path);
    return leaf == nullptr ? 0 : static_cast<int64_t>(leaf->AsNumber());
  };
  auto flag = [&document](std::string_view path) {
    const Value* leaf = document.FindPath(path);
    return leaf != nullptr && leaf->AsBool();
  };
  ServiceStats stats;
  stats.requests = number("service.requests");
  stats.batches = number("service.batches");
  stats.failures = number("service.failures");
  stats.documents = static_cast<size_t>(number("service.documents"));
  stats.tracing = flag("service.tracing");
  stats.slow_queries = number("service.slow_queries");
  stats.latency = ReadSummary(document.Find("latency_ms"));

  stats.plan_cache_entries = static_cast<size_t>(number("plan_cache.entries"));
  stats.plan_cache.hits = number("plan_cache.hits");
  stats.plan_cache.canonical_hits = number("plan_cache.canonical_hits");
  stats.plan_cache.misses = number("plan_cache.misses");
  stats.plan_cache.parse_failures = number("plan_cache.parse_failures");
  stats.plan_cache.evictions = number("plan_cache.evictions");

  stats.answer_cache_enabled = flag("answer_cache.enabled");
  stats.answer_cache.hits = number("answer_cache.hits");
  stats.answer_cache.misses = number("answer_cache.misses");
  stats.answer_cache.inserts = number("answer_cache.inserts");
  stats.answer_cache.invalidations = number("answer_cache.invalidations");
  stats.answer_cache.retained = number("answer_cache.retained");
  stats.answer_cache.remapped = number("answer_cache.remapped");
  stats.answer_cache.evictions = number("answer_cache.evictions");
  stats.answer_cache.declined = number("answer_cache.declined");
  stats.answer_cache.bytes = number("answer_cache.bytes");
  stats.answer_cache.entries = number("answer_cache.entries");

  stats.subscriptions.active = number("subscriptions.active");
  stats.subscriptions.fired = number("subscriptions.fired");
  stats.subscriptions.coalesced = number("subscriptions.coalesced");
  stats.subscriptions.skipped_disjoint =
      number("subscriptions.skipped_disjoint");
  stats.subscriptions.evaluations = number("subscriptions.evaluations");

  stats.exec_skipped_segments = number("exec.skipped_segments");
  if (const Value* routes = document.Find("routes")) {
    for (const auto& [route, summary] : routes->members()) {
      stats.segment_route_counts[route] = ReadSummary(&summary).count;
    }
  }
  return stats;
}

std::string RenderStatsDocument(const Value& root, StatsFormat format) {
  if (format == StatsFormat::kJson) return root.Dump(2) + "\n";

  // Text: every numeric leaf of the same document, one per line.
  std::vector<std::pair<std::string, double>> lines;
  root.FlattenNumbers("gkx", &lines);
  std::string out;
  out.reserve(lines.size() * 40);
  for (const auto& [name, value] : lines) {
    char buf[64];
    if (value == static_cast<double>(static_cast<int64_t>(value))) {
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6f", value);
    }
    out += name;
    out.push_back(' ');
    out += buf;
    out.push_back('\n');
  }
  return out;
}

Value QueryService::ExportStatsDocument() const {
  return BuildStatsDocument(registry_, options_.obs,
                            options_.answer_cache_enabled,
                            slow_log_.Snapshot());
}

ServiceStats QueryService::Stats() const {
  return ReadServiceStats(ExportStatsDocument());
}

std::string QueryService::ExportStats(StatsFormat format) const {
  return RenderStatsDocument(ExportStatsDocument(), format);
}

}  // namespace gkx::service
