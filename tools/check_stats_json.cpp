// CI schema check for QueryService::ExportStats(kJson) dumps (the
// "gkx-stats-v2" document bench_soak writes via --stats-json=). Parses the
// file back through obs::json, requires every top-level section the schema
// promises, and re-proves offline the identities between counters that are
// kept apart: latency samples vs successful requests, route counts vs
// evaluated requests and skipped segments, the wal.* family, and the
// sharded aggregate vs its per-shard breakdown.
//
//   ./check_stats_json BENCH_soak_stats.json
//
// Exits 0 on a valid document, 1 with a diagnostic otherwise.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "wal/record.hpp"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "check_stats_json: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    return Fail("usage: check_stats_json <stats.json>");
  }
  std::ifstream in(argv[1]);
  if (!in) return Fail(std::string("cannot open ") + argv[1]);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto parsed = gkx::obs::json::Parse(text);
  if (!parsed.ok()) {
    return Fail("parse error: " + parsed.status().ToString());
  }
  const gkx::obs::json::Value& root = *parsed;

  const auto* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "gkx-stats-v2") {
    return Fail("missing or wrong \"schema\" (want \"gkx-stats-v2\")");
  }

  for (const char* section :
       {"service", "plan_cache", "answer_cache", "subscriptions", "exec",
        "latency_ms", "routes", "metrics", "slow_queries"}) {
    if (root.Find(section) == nullptr) {
      return Fail(std::string("missing section \"") + section + "\"");
    }
  }

  for (const char* path :
       {"service.requests", "service.failures", "service.documents",
        "service.tracing",
        "latency_ms.count", "latency_ms.p50", "latency_ms.p99",
        "latency_ms.p999", "latency_ms.max"}) {
    if (root.FindPath(path) == nullptr) {
      return Fail(std::string("missing field \"") + path + "\"");
    }
  }

  // Always-on latency: one sample per successful request.
  const double requests = root.FindPath("service.requests")->AsNumber();
  const double failures = root.FindPath("service.failures")->AsNumber();
  const double latency_count = root.FindPath("latency_ms.count")->AsNumber();
  if (latency_count != requests - failures) {
    return Fail("latency_ms.count != service.requests - service.failures");
  }

  // The route store: exactly the four served routes, each with a count.
  const char* const kRoutes[] = {"pf-indexed", "pf-frontier", "core-linear",
                                 "cvt"};
  auto route_count = [](const gkx::obs::json::Value& doc, const char* route) {
    const auto* count = doc.FindPath(std::string("routes.") + route + ".count");
    return count == nullptr ? -1.0 : count->AsNumber();
  };
  if (root.Find("routes")->members().size() != std::size(kRoutes)) {
    return Fail("routes does not hold exactly the four served routes");
  }
  double route_total = 0.0;
  for (const char* route : kRoutes) {
    const double count = route_count(root, route);
    if (count < 0) return Fail(std::string("routes.") + route + " has no count");
    route_total += count;
  }
  for (const char* path : {"exec.skipped_segments", "answer_cache.misses"}) {
    if (root.FindPath(path) == nullptr) {
      return Fail(std::string("missing field \"") + path + "\"");
    }
  }
  // Every evaluated request records at least one route: the index fast
  // path one pf-indexed, a plan one per segment (skipped segments too, so
  // they are a subset of the three engine routes' counts). A failed
  // request may have missed the answer cache without recording any.
  const double misses = root.FindPath("answer_cache.misses")->AsNumber();
  if (route_total < misses - failures) {
    return Fail(
        "sum(routes.*.count) < answer_cache.misses - service.failures");
  }
  if (root.FindPath("exec.skipped_segments")->AsNumber() >
      route_total - route_count(root, "pf-indexed")) {
    return Fail("exec.skipped_segments > the engine routes' counts");
  }

  // Durable services export the wal.* family (src/wal/wal.hpp). The
  // section is optional — an in-memory service never creates the metrics —
  // but when a WAL was attached the whole family must be present and
  // reconcile: each enqueued record is awaited exactly once (records ==
  // append_ms.count) and occupies at least the minimum frame on disk.
  const auto* wal = root.FindPath("metrics.wal");
  if (wal != nullptr) {
    for (const char* field :
         {"append_ms", "fsync_batch_ms", "checkpoint_ms", "replay_ms",
          "records", "bytes", "torn_tail"}) {
      if (wal->Find(field) == nullptr) {
        return Fail(std::string("metrics.wal present but missing \"") + field +
                    "\"");
      }
    }
    const double wal_records = wal->Find("records")->AsNumber();
    const auto* append_count = wal->FindPath("append_ms.count");
    if (append_count == nullptr) {
      return Fail("metrics.wal.append_ms has no count");
    }
    if (append_count->AsNumber() != wal_records) {
      return Fail("metrics.wal.records != metrics.wal.append_ms.count");
    }
    constexpr double kMinFrameBytes =
        gkx::wal::kFrameHeaderBytes + gkx::wal::kMinPayloadBytes;
    if (wal->Find("bytes")->AsNumber() < wal_records * kMinFrameBytes) {
      return Fail("metrics.wal.bytes < records * minimum frame size");
    }
    if (wal->Find("torn_tail")->AsNumber() < 0.0) {
      return Fail("metrics.wal.torn_tail is negative");
    }
  }

  // Sharded exports (ShardedQueryService::ExportStats) carry the same
  // aggregated document at top level plus a shards[] breakdown — one full
  // per-shard document each. The aggregate is recomputed here from the
  // breakdown: requests, failures, documents, latency samples, and every
  // per-route count must sum to the top-level figures exactly
  // (the router may reorder work across shards but can neither invent nor
  // drop any of it).
  const auto* shards = root.Find("shards");
  if (shards != nullptr) {
    const auto* declared = root.FindPath("sharding.shards");
    if (declared == nullptr) {
      return Fail("\"shards\" breakdown without \"sharding.shards\"");
    }
    if (!shards->is_array() ||
        declared->AsNumber() != static_cast<double>(shards->items().size())) {
      return Fail("sharding.shards != len(shards)");
    }
    double shard_requests = 0, shard_failures = 0, shard_documents = 0,
           shard_latency = 0;
    std::map<std::string, double> shard_routes;
    for (const auto& shard : shards->items()) {
      for (const char* path :
           {"shard", "service.requests", "service.failures",
            "service.documents", "latency_ms.count"}) {
        if (shard.FindPath(path) == nullptr) {
          return Fail(std::string("shards[] entry missing \"") + path + "\"");
        }
      }
      shard_requests += shard.FindPath("service.requests")->AsNumber();
      shard_failures += shard.FindPath("service.failures")->AsNumber();
      shard_documents += shard.FindPath("service.documents")->AsNumber();
      shard_latency += shard.FindPath("latency_ms.count")->AsNumber();
      for (const char* route : kRoutes) {
        const double count = route_count(shard, route);
        if (count < 0) {
          return Fail(std::string("shards[] entry missing routes.") + route +
                      ".count");
        }
        shard_routes[route] += count;
      }
    }
    if (shard_requests != requests) {
      return Fail("sum(shards[].service.requests) != service.requests");
    }
    if (shard_failures != failures) {
      return Fail("sum(shards[].service.failures) != service.failures");
    }
    if (shard_documents != root.FindPath("service.documents")->AsNumber()) {
      return Fail("sum(shards[].service.documents) != service.documents");
    }
    if (shard_latency != latency_count) {
      return Fail("sum(shards[].latency_ms.count) != latency_ms.count");
    }
    for (const char* route : kRoutes) {
      if (shard_routes[route] != route_count(root, route)) {
        return Fail(std::string("sum(shards[].routes.") + route +
                    ".count) != routes." + route + ".count");
      }
    }
  }

  const bool tracing = root.FindPath("service.tracing")->AsBool();
  std::printf(
      "check_stats_json: %s ok (%zu bytes, tracing %s, wal %s, shards %s)\n",
      argv[1], text.size(), tracing ? "on" : "off",
      wal != nullptr ? "on" : "off",
      shards != nullptr ? std::to_string(shards->items().size()).c_str()
                        : "n/a");
  return 0;
}
