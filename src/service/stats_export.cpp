// The machine-readable face of the stats surface. One builder
// (BuildStatsDocument) produces the structured "gkx-stats-v2" JSON document
// from a StatsExportInputs bundle; the text format is its numeric leaves
// flattened into `gkx_<path> value` lines (obs::json::Value::FlattenNumbers),
// so the two views can never drift apart. QueryService::ExportStats feeds it
// one service's snapshot; ShardedQueryService::ExportStats feeds it the
// merged aggregate and embeds the per-shard documents (sharded_service.cpp).

#include <cstdio>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "service/query_service.hpp"
#include "service/stats_json.hpp"

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

}  // namespace

Value BuildStatsDocument(const StatsExportInputs& inputs) {
  const ServiceStats& stats = inputs.stats;

  Value root = Value::Object();
  root["schema"] = Value("gkx-stats-v2");

  {
    Value service = Value::Object();
    service["requests"] = Value(stats.requests);
    service["batches"] = Value(stats.batches);
    service["failures"] = Value(stats.failures);
    service["documents"] = Value(stats.documents);
    service["tracing"] = Value(stats.tracing);
    service["slow_queries"] = Value(stats.slow_queries);
    service["slow_query_threshold_ms"] = Value(inputs.slow_query_threshold_ms);
    root["service"] = std::move(service);
  }
  {
    Value pc = Value::Object();
    pc["entries"] = Value(stats.plan_cache_entries);
    pc["hits"] = Value(stats.plan_cache.hits);
    pc["canonical_hits"] = Value(stats.plan_cache.canonical_hits);
    pc["misses"] = Value(stats.plan_cache.misses);
    pc["parse_failures"] = Value(stats.plan_cache.parse_failures);
    pc["evictions"] = Value(stats.plan_cache.evictions);
    root["plan_cache"] = std::move(pc);
  }
  {
    Value ac = Value::Object();
    ac["enabled"] = Value(stats.answer_cache_enabled);
    ac["hits"] = Value(stats.answer_cache.hits);
    ac["misses"] = Value(stats.answer_cache.misses);
    ac["inserts"] = Value(stats.answer_cache.inserts);
    ac["invalidations"] = Value(stats.answer_cache.invalidations);
    ac["retained"] = Value(stats.answer_cache.retained);
    ac["remapped"] = Value(stats.answer_cache.remapped);
    ac["evictions"] = Value(stats.answer_cache.evictions);
    ac["declined"] = Value(stats.answer_cache.declined);
    ac["bytes"] = Value(stats.answer_cache.bytes);
    ac["entries"] = Value(stats.answer_cache.entries);
    root["answer_cache"] = std::move(ac);
  }
  {
    Value subs = Value::Object();
    subs["active"] = Value(stats.subscriptions.active);
    subs["fired"] = Value(stats.subscriptions.fired);
    subs["coalesced"] = Value(stats.subscriptions.coalesced);
    subs["skipped_disjoint"] = Value(stats.subscriptions.skipped_disjoint);
    subs["evaluations"] = Value(stats.subscriptions.evaluations);
    root["subscriptions"] = std::move(subs);
  }
  {
    // Staged-executor dispatch accounting. Invariant (checked by
    // tools/check_stats_json and the soak reconciliation):
    // parallel + sequential + skipped == staged_segments, exactly — the
    // per-segment buckets are flushed atomically per successful run, so
    // the identity holds even while segments execute concurrently (and
    // across shards: every term is a plain sum).
    Value exec = Value::Object();
    exec["staged_segments"] = Value(stats.staged_segments);
    exec["parallel_segments"] = Value(stats.exec_parallel_segments);
    exec["sequential_segments"] = Value(stats.exec_sequential_segments);
    exec["skipped_segments"] = Value(stats.exec_skipped_segments);
    root["exec"] = std::move(exec);
  }
  root["latency_ms"] = SummaryJson(stats.latency);
  {
    // The one route store: routes.<route>.count is how often the route
    // executed (ServiceStats::segment_route_counts), the rest its latency.
    // Always the four routes pf-indexed / pf-frontier / core-linear / cvt.
    Value routes = Value::Object();
    for (const auto& [label, summary] : stats.route_latency) {
      routes[label] = SummaryJson(summary);
    }
    root["routes"] = std::move(routes);
  }
  {
    // The raw registry, with dotted names nested ("update.splice_ms" →
    // metrics.update.splice_ms): the stage.*, update.* and wal.* families.
    Value metrics = Value::Object();
    auto slot = [&metrics](const std::string& name) -> Value& {
      Value* node = &metrics;
      std::string_view rest = name;
      for (size_t dot = rest.find('.'); dot != std::string_view::npos;
           dot = rest.find('.')) {
        Value& child = (*node)[std::string(rest.substr(0, dot))];
        if (!child.is_object()) child = Value::Object();
        node = &child;
        rest.remove_prefix(dot + 1);
      }
      return (*node)[std::string(rest)];
    };
    for (const auto& [name, value] : inputs.registry->CounterValues()) {
      slot(name) = Value(value);
    }
    for (const auto& [name, value] : inputs.registry->GaugeValues()) {
      slot(name) = Value(value);
    }
    for (const auto& [name, summary] : inputs.registry->HistogramSummaries()) {
      slot(name) = SummaryJson(summary);
    }
    root["metrics"] = std::move(metrics);
  }
  {
    Value entries = Value::Array();
    for (const obs::SlowQuery& slow : inputs.slow_queries) {
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
  }

  return root;
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
  StatsExportInputs inputs;
  inputs.stats = Stats();
  inputs.slow_query_threshold_ms = slow_log_.threshold_ms();
  inputs.slow_queries = slow_log_.Snapshot();
  inputs.registry = &registry_;
  return BuildStatsDocument(inputs);
}

std::string QueryService::ExportStats(StatsFormat format) const {
  return RenderStatsDocument(ExportStatsDocument(), format);
}

}  // namespace gkx::service
