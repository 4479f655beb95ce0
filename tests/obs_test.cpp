// gkx::obs — the observability layer.
//   * Histogram: bucket math round-trips, percentiles checked against a
//     sorted-vector oracle within the documented 12.5% bucket width,
//     concurrent Record (the TSan target for the lock-free path), Merge.
//   * SlowQueryLog: threshold eligibility and bounded ring semantics.
//   * MetricRegistry / json: stable pointers, flatten sanitization, and a
//     Dump -> Parse round trip.
//   * QueryService::ExportStats: the live end-to-end check — JSON parses
//     back, text and JSON agree, routes hold exactly the four served
//     routes, slow queries land in the log, and route counts and latency
//     are recorded with tracing off.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/query_service.hpp"
#include "service/sharded_service.hpp"
#include "xml/edit.hpp"
#include "xml/parser.hpp"

namespace gkx::obs {
namespace {

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketMathRoundTrips) {
  // Every value lies strictly below its bucket's upper bound, and bucket
  // indexes are non-decreasing in the value.
  size_t last = 0;
  for (uint64_t value : {0ull, 1ull, 63ull, 64ull, 65ull, 100ull, 127ull,
                         128ull, 1000ull, 4095ull, 4096ull, 1000000ull,
                         123456789ull, 1ull << 35, 1ull << 40}) {
    const size_t index = Histogram::BucketIndex(value);
    EXPECT_LT(value, Histogram::BucketUpperBound(index)) << value;
    EXPECT_GE(index, last) << value;
    last = index;
  }
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(63), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 64u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBucketCount - 1),
            UINT64_MAX);
  // Within an octave the 8 sub-buckets are contiguous: each bucket's upper
  // bound is the next bucket's lower bound (spot-check one octave).
  for (size_t i = 1; i + 1 < 1 + 8 * 3; ++i) {
    const uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketIndex(hi), i + 1);
    EXPECT_EQ(Histogram::BucketIndex(hi - 1), i);
  }
}

TEST(HistogramTest, PercentilesMatchSortedOracleWithinBucketWidth) {
  // Golden check: reported quantiles vs the true order statistics of the
  // same samples. The report is the upper bound of the rank-th sample's
  // bucket (clamped to the exact max), so
  //   oracle <= reported <= max(oracle * 9/8, 64).
  Rng rng(4242);
  Histogram hist(Histogram::Unit::kCount);
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish spread across 5 decades, the regime latencies live in.
    const uint64_t value = static_cast<uint64_t>(
        rng.UniformInt(1, 1 << rng.UniformInt(1, 24)));
    samples.push_back(value);
    hist.RecordValue(value);
  }
  std::sort(samples.begin(), samples.end());
  const auto summary = hist.Summary();
  ASSERT_EQ(summary.count, static_cast<int64_t>(samples.size()));

  const struct {
    double q;
    double reported;
  } kQuantiles[] = {{0.5, summary.p50},
                    {0.9, summary.p90},
                    {0.99, summary.p99},
                    {0.999, summary.p999}};
  for (const auto& [q, reported] : kQuantiles) {
    // Identical rank computation to Histogram::Summary.
    const size_t rank = static_cast<size_t>(std::max<int64_t>(
        1, static_cast<int64_t>(
               std::ceil(q * static_cast<double>(samples.size())))));
    const double oracle = static_cast<double>(samples[rank - 1]);
    EXPECT_GE(reported, oracle) << "q=" << q;
    EXPECT_LE(reported, std::max(oracle * 1.125, 64.0)) << "q=" << q;
  }
  EXPECT_EQ(summary.max, static_cast<double>(samples.back()));
  double exact_mean = 0.0;
  for (uint64_t s : samples) exact_mean += static_cast<double>(s);
  exact_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(summary.mean, exact_mean, 1e-9);
}

TEST(HistogramTest, NanosUnitScalesToMilliseconds) {
  Histogram hist(Histogram::Unit::kNanos);
  for (int i = 0; i < 100; ++i) hist.Record(0.002);  // 2ms
  const auto summary = hist.Summary();
  EXPECT_EQ(summary.count, 100);
  // 2e6 ns sits in a 12.5%-wide bucket; max is exact.
  EXPECT_GE(summary.p50, 2.0);
  EXPECT_LE(summary.p50, 2.0 * 1.125);
  EXPECT_DOUBLE_EQ(summary.max, 2.0);
  EXPECT_DOUBLE_EQ(summary.mean, 2.0);
}

TEST(HistogramTest, ConcurrentRecordIsLossless) {
  // The TSan target: concurrent lock-free Record from several threads must
  // lose nothing and tear nothing.
  Histogram hist(Histogram::Unit::kCount);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.RecordValue(static_cast<uint64_t>(t * 1000 + (i % 7)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto summary = hist.Summary();
  EXPECT_EQ(summary.count, int64_t{kThreads} * kPerThread);
  EXPECT_EQ(summary.max, 3006.0);  // t=3, i%7==6
}

TEST(HistogramTest, MergeFoldsBuckets) {
  Histogram a(Histogram::Unit::kCount);
  Histogram b(Histogram::Unit::kCount);
  for (int i = 0; i < 100; ++i) a.RecordValue(10);
  for (int i = 0; i < 50; ++i) b.RecordValue(5000);
  a.Merge(b);
  const auto summary = a.Summary();
  EXPECT_EQ(summary.count, 150);
  EXPECT_EQ(summary.max, 5000.0);
  EXPECT_LE(summary.p50, 64.0);      // median still in bucket 0
  EXPECT_GE(summary.p99, 5000.0);    // tail from b
}

// ------------------------------------------------------------- SlowQueryLog

TEST(SlowQueryLogTest, ThresholdAndBoundedRing) {
  SlowQueryLog log(/*threshold_ms=*/5.0, /*capacity=*/4);
  EXPECT_FALSE(log.Eligible(4.999));
  EXPECT_TRUE(log.Eligible(5.0));

  for (int i = 0; i < 10; ++i) {
    SlowQuery entry;
    entry.query = "q" + std::to_string(i);
    entry.total_ms = 6.0;
    log.Record(std::move(entry));
  }
  EXPECT_EQ(log.recorded(), 10);  // all crossings counted...
  const auto snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);  // ...but the ring keeps the newest 4
  EXPECT_EQ(snapshot.front().query, "q6");
  EXPECT_EQ(snapshot.back().query, "q9");
}

TEST(SlowQueryLogTest, ZeroCapacityNeverEligible) {
  SlowQueryLog log(/*threshold_ms=*/0.0, /*capacity=*/0);
  EXPECT_FALSE(log.Eligible(1e9));
}

// ----------------------------------------------------------- MetricRegistry

TEST(MetricRegistryTest, StablePointersAndExport) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("requests");
  EXPECT_EQ(registry.GetCounter("requests"), counter);  // stable
  counter->Add(3);

  Histogram* hist =
      registry.GetHistogram("latency_ms", Histogram::Unit::kNanos);
  EXPECT_EQ(registry.GetHistogram("latency_ms"), hist);
  hist->Record(0.001);

  registry.SetGauge("entries", [] { return 7.0; });

  const auto counters = registry.CounterValues();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].first, "requests");
  EXPECT_EQ(counters[0].second, 3);
  const auto gauges = registry.GaugeValues();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 7.0);
  const auto hists = registry.HistogramSummaries();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].second.count, 1);
}

// --------------------------------------------------------------------- json

TEST(JsonTest, DumpParseRoundTrip) {
  json::Value root = json::Value::Object();
  root["name"] = json::Value("gkx \"quoted\"\n");
  root["pi"] = json::Value(3.25);
  root["n"] = json::Value(int64_t{-42});
  root["flag"] = json::Value(true);
  root["nothing"] = json::Value();
  json::Value items = json::Value::Array();
  items.Append(json::Value(1));
  items.Append(json::Value("two"));
  root["items"] = std::move(items);

  for (int indent : {0, 2}) {
    auto parsed = json::Parse(root.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->Find("name")->AsString(), "gkx \"quoted\"\n");
    EXPECT_DOUBLE_EQ(parsed->Find("pi")->AsNumber(), 3.25);
    EXPECT_DOUBLE_EQ(parsed->Find("n")->AsNumber(), -42.0);
    EXPECT_TRUE(parsed->Find("flag")->AsBool());
    EXPECT_EQ(parsed->Find("nothing")->type(), json::Value::Type::kNull);
    ASSERT_EQ(parsed->Find("items")->items().size(), 2u);
    EXPECT_EQ(parsed->Find("items")->items()[1].AsString(), "two");
  }
  EXPECT_FALSE(json::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(json::Parse("{\"a\": }").ok());
}

TEST(JsonTest, FlattenNumbersSanitizesComponents) {
  json::Value root = json::Value::Object();
  root["routes"] = json::Value::Object();
  root["routes"]["pf-indexed"] = json::Value::Object();
  root["routes"]["pf-indexed"]["count"] = json::Value(5);
  root["skip_me"] = json::Value("strings are not series");
  root["on"] = json::Value(true);

  std::vector<std::pair<std::string, double>> out;
  root.FlattenNumbers("gkx", &out);
  ASSERT_EQ(out.size(), 2u);  // sorted map order: "on" < "routes"
  EXPECT_EQ(out[0].first, "gkx_on");
  EXPECT_DOUBLE_EQ(out[0].second, 1.0);
  EXPECT_EQ(out[1].first, "gkx_routes_pf_indexed_count");
  EXPECT_DOUBLE_EQ(out[1].second, 5.0);
}

// ------------------------------------------------- QueryService::ExportStats

const char kDoc[] =
    "<r><a><b/><b/></a><a><b><c/></b></a><c><b/></c><d>text</d></r>";

TEST(ExportStatsTest, JsonRoundTripReconciles) {
  service::QueryService svc;
  ASSERT_TRUE(svc.RegisterXml("doc", kDoc).ok());
  const std::vector<std::string> queries = {
      "/descendant::b",                          // PF, indexed fast path
      "/descendant::a[child::b]",                // PF with condition
      "count(/descendant::c)",                   // full XPath scalar
      "/descendant::b[position() = 2]",          // positional
      "/descendant::a/child::b[position() = 1]/descendant::c",  // hybrid
  };
  int64_t requests = 0;
  for (int round = 0; round < 3; ++round) {
    for (const auto& query : queries) {
      ASSERT_TRUE(svc.Submit("doc", query).ok());
      ++requests;
    }
  }

  const std::string text = svc.ExportStats(service::StatsFormat::kJson);
  auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value& root = *parsed;

  EXPECT_EQ(root.Find("schema")->AsString(), "gkx-stats-v2");
  EXPECT_EQ(root.FindPath("service.requests")->AsNumber(),
            static_cast<double>(requests));
  EXPECT_EQ(root.FindPath("service.failures")->AsNumber(), 0.0);
  EXPECT_EQ(root.FindPath("latency_ms.count")->AsNumber(),
            static_cast<double>(requests));

  // Routes: exactly the four served routes. The first round ran each query
  // once — one route per plan segment, so the three-segment one three
  // times — and the repeat rounds were answer-cache hits, which run no
  // route.
  EXPECT_TRUE(root.FindPath("service.tracing")->AsBool());
  const json::Value* routes = root.Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->members().size(), 4u);
  double route_total = 0.0;
  for (const char* route : {"pf-indexed", "pf-frontier", "core-linear",
                            "cvt"}) {
    const json::Value* count = routes->FindPath(std::string(route) + ".count");
    ASSERT_NE(count, nullptr) << route;
    route_total += count->AsNumber();
  }
  EXPECT_EQ(root.FindPath("routes.pf-indexed.count")->AsNumber(), 1.0);
  EXPECT_EQ(route_total, static_cast<double>(queries.size()) - 1.0 + 3.0);
  EXPECT_EQ(root.Find("segment_route_counts"), nullptr);
  EXPECT_EQ(root.FindPath("metrics.request_latency_ms"), nullptr);

  // The text format is the same document flattened: the headline series
  // must agree with the JSON numbers.
  const std::string flat = svc.ExportStats(service::StatsFormat::kText);
  const std::string want =
      "gkx_service_requests " + std::to_string(requests);
  EXPECT_NE(flat.find(want + "\n"), std::string::npos) << flat;
  EXPECT_NE(flat.find("gkx_latency_ms_p99 "), std::string::npos);
}

TEST(ExportStatsTest, SlowQueryLogCapturesBreakdown) {
  service::QueryService::Options options;
  options.obs.slow_query_ms = 0.0;  // every request is "slow"
  options.obs.slow_query_capacity = 8;
  service::QueryService svc(options);
  ASSERT_TRUE(svc.RegisterXml("doc", kDoc).ok());
  ASSERT_TRUE(svc.Submit("doc", "/descendant::b").ok());
  ASSERT_TRUE(svc.Submit("doc", "count(/descendant::c)").ok());

  const auto slow = svc.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  for (const auto& entry : slow) {
    EXPECT_EQ(entry.doc_key, "doc");
    EXPECT_FALSE(entry.query.empty());
    EXPECT_FALSE(entry.routes.empty());
    EXPECT_FALSE(entry.stages_ms.empty());
    EXPECT_GE(entry.total_ms, 0.0);
  }
  EXPECT_EQ(svc.Stats().slow_queries, 2);

  // And the export carries them.
  auto parsed = json::Parse(svc.ExportStats(service::StatsFormat::kJson));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("slow_queries")->items().size(), 2u);
}

TEST(ExportStatsTest, TracingOffStillRecordsLatency) {
  service::QueryService::Options options;
  options.obs.tracing = false;
  service::QueryService svc(options);
  ASSERT_TRUE(svc.RegisterXml("doc", kDoc).ok());
  ASSERT_TRUE(svc.Submit("doc", "/descendant::b").ok());
  const auto stats = svc.Stats();
  EXPECT_FALSE(stats.tracing);
  EXPECT_EQ(stats.latency.count, 1);  // always-on histogram
  EXPECT_TRUE(svc.SlowQueries().empty());
}

TEST(ExportStatsTest, TracingOffStillRecordsRoutes) {
  service::QueryService::Options options;
  options.obs.tracing = false;
  service::QueryService svc(options);
  ASSERT_TRUE(svc.RegisterXml("doc", kDoc).ok());
  ASSERT_TRUE(svc.Submit("doc", "/descendant::b").ok());         // indexed
  ASSERT_TRUE(svc.Submit("doc", "count(/descendant::c)").ok());  // cvt
  ASSERT_TRUE(svc.Submit("doc", "count(/descendant::c)").ok());  // cache hit
  ASSERT_TRUE(
      svc.Submit("doc", "/descendant::a/child::b[position() = 1]").ok());

  const auto stats = svc.Stats();
  EXPECT_FALSE(stats.tracing);
  EXPECT_EQ(stats.segment_route_counts.at("pf-indexed"), 1);
  EXPECT_EQ(stats.segment_route_counts.at("pf-frontier"), 1);
  EXPECT_EQ(stats.segment_route_counts.at("core-linear"), 0);
  EXPECT_EQ(stats.segment_route_counts.at("cvt"), 2);
  // The route latencies are the document's routes.<route> summaries.
  auto parsed = json::Parse(svc.ExportStats(service::StatsFormat::kJson));
  ASSERT_TRUE(parsed.ok());
  const json::Value* routes = parsed->Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->members().size(), 4u);
  for (const auto& [route, summary] : routes->members()) {
    EXPECT_EQ(summary.Find("count")->AsNumber(),
              static_cast<double>(stats.segment_route_counts.at(route)))
        << route;
  }
  EXPECT_GT(parsed->FindPath("routes.cvt.max")->AsNumber(), 0.0);
}


// ------------------------------------------- the stats document, pinned

// A fixed single-threaded script whose every counter is deterministic: one
// batch worker, small caches (so evictions happen), every request slow (so
// the slow-query list has entries), and a subscription flush after every
// mutation (so no delivery coalesces by timing).
service::QueryService::Options GoldenOptions() {
  service::QueryService::Options options;
  options.batch_workers = 1;
  options.plan_cache.capacity = 3;
  options.plan_cache.shards = 1;
  options.answer_cache.capacity = 12;
  options.answer_cache.shards = 1;
  options.obs.slow_query_ms = 0.0;
  options.obs.slow_query_capacity = 2;
  return options;
}

std::string GoldenXml(int k, const std::string& extra = "") {
  const std::string t = std::to_string(k);
  return "<r><a><b/><b>" + t + "</b></a><a><b><c/></b></a><c><b/></c>" +
         extra + "</r>";
}

template <typename Service>
void RunGoldenScript(Service& service) {
  auto flush = [&service] { service.FlushSubscriptions(); };
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(service.RegisterXml("doc" + std::to_string(k), GoldenXml(k))
                    .ok());
    flush();
  }
  auto ignore = [](const mview::SubscriptionEvent&) {};
  ASSERT_TRUE(service.Subscribe("doc*", "/descendant::b", ignore).ok());
  flush();
  auto narrow = service.Subscribe("doc1", "/descendant::c", ignore);
  ASSERT_TRUE(narrow.ok());
  flush();

  std::vector<service::QueryService::Request> batch;
  for (int k = 0; k < 4; ++k) {
    const std::string key = "doc" + std::to_string(k);
    batch.push_back({key, "/descendant::b"});                    // indexed
    batch.push_back({key, "count(/descendant::c)"});             // cvt
    batch.push_back({key, "/descendant::a[not(child::c)]"});     // core
    batch.push_back(
        {key, "/descendant::a/child::b[position() = 1]"});        // hybrid
  }
  batch.push_back({"missing", "/descendant::b"});  // unknown document
  batch.push_back({"doc0", "/descendant::"});      // parse failure
  ASSERT_EQ(service.SubmitBatch(batch).size(), batch.size());
  ASSERT_TRUE(service.Submit("doc0", "/descendant::b").ok());  // cache hit

  xml::SubtreeEdit text;
  text.kind = xml::SubtreeEdit::Kind::kSetText;
  text.target = 3;
  text.text = "churned";
  ASSERT_TRUE(service.UpdateDocument("doc1", text).ok());
  flush();
  xml::SubtreeEdit insert;
  insert.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
  insert.target = 0;
  insert.position = 0;
  auto subtree = xml::ParseDocument("<a><b>new</b></a>");
  ASSERT_TRUE(subtree.ok());
  insert.subtree = std::move(*subtree);
  ASSERT_TRUE(service.UpdateDocument("doc2", insert).ok());
  flush();
  ASSERT_TRUE(service.RegisterXml("doc3", GoldenXml(3, "<c/>")).ok());
  flush();
  ASSERT_TRUE(service.RemoveDocument("doc0"));
  flush();
  ASSERT_TRUE(service.Unsubscribe(*narrow));

  ASSERT_EQ(service.SubmitBatch(batch).size(), batch.size());
  flush();
}

bool IsSummary(const json::Value& value) {
  if (!value.is_object() || value.members().size() != 7) return false;
  for (const char* key : {"count", "p50", "p90", "p99", "p999", "max",
                          "mean"}) {
    const json::Value* member = value.Find(key);
    if (member == nullptr || !member->is_number()) return false;
  }
  return true;
}

/// One line per leaf, in key order: "path:type", plus "=value" for every
/// count. A histogram summary is one "path:summary=count" line (its seven
/// numeric keys checked); numbers under a "*_ms" name are timings and keep
/// only their type.
void DescribeLeaves(const json::Value& value, const std::string& path,
                    bool timing, std::string* out) {
  auto line = [&](const std::string& text) { *out += path + ":" + text + "\n"; };
  auto child = [&path](const std::string& key) {
    return path.empty() ? key : path + "." + key;
  };
  auto is_ms = [](const std::string& key) {
    return key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0;
  };
  switch (value.type()) {
    case json::Value::Type::kObject:
      if (IsSummary(value)) {
        line("summary=" + std::to_string(static_cast<int64_t>(
                              value.Find("count")->AsNumber())));
        return;
      }
      if (value.members().empty()) line("object");
      for (const auto& [key, member] : value.members()) {
        DescribeLeaves(member, child(key), timing || is_ms(key), out);
      }
      return;
    case json::Value::Type::kArray:
      if (value.items().empty()) line("array");
      for (size_t i = 0; i < value.items().size(); ++i) {
        DescribeLeaves(value.items()[i], child(std::to_string(i)), timing,
                       out);
      }
      return;
    case json::Value::Type::kNumber:
      line(timing ? "number"
                  : "number=" + std::to_string(
                                    static_cast<int64_t>(value.AsNumber())));
      return;
    case json::Value::Type::kBool:
      line(value.AsBool() ? "bool=true" : "bool=false");
      return;
    case json::Value::Type::kString:
      line("string");
      return;
    case json::Value::Type::kNull:
      line("null");
      return;
  }
}

template <typename Service>
std::string GoldenLeaves(const Service& service) {
  auto parsed = json::Parse(service.ExportStats(service::StatsFormat::kJson));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string out;
  if (parsed.ok()) DescribeLeaves(*parsed, "", false, &out);
  return out;
}

const char kSingleServiceGolden[] = R"(answer_cache.bytes:number=2130
answer_cache.declined:number=0
answer_cache.enabled:bool=true
answer_cache.entries:number=12
answer_cache.evictions:number=5
answer_cache.hits:number=4
answer_cache.inserts:number=25
answer_cache.invalidations:number=8
answer_cache.misses:number=25
answer_cache.remapped:number=0
answer_cache.retained:number=4
exec.skipped_segments:number=0
latency_ms:summary=29
metrics.stage.answer_cache_lookup_ms:summary=1
metrics.stage.cache_insert_ms:summary=25
metrics.stage.doc_lookup_ms:summary=1
metrics.stage.execute_ms:summary=25
metrics.stage.plan_lookup_ms:summary=1
metrics.update.affected_scan_ms:summary=8
metrics.update.count:number=8
metrics.update.invalidated_entries:summary=8
metrics.update.remapped_entries:summary=8
metrics.update.retained_entries:summary=8
metrics.update.splice_ms:summary=8
metrics.update.subscription_eval_ms:summary=7
plan_cache.canonical_hits:number=0
plan_cache.entries:number=3
plan_cache.evictions:number=25
plan_cache.hits:number=1
plan_cache.misses:number=28
plan_cache.parse_failures:number=1
routes.core-linear:summary=6
routes.cvt:summary=11
routes.pf-frontier:summary=6
routes.pf-indexed:summary=8
schema:string
service.batches:number=2
service.documents:number=3
service.failures:number=8
service.requests:number=37
service.slow_queries:number=29
service.slow_query_threshold_ms:number
service.tracing:bool=true
slow_queries.0.doc_key:string
slow_queries.0.query:string
slow_queries.0.revision:number=7
slow_queries.0.routes.0:string
slow_queries.0.stages_ms.cache_insert:number
slow_queries.0.stages_ms.execute:number
slow_queries.0.total_ms:number
slow_queries.1.doc_key:string
slow_queries.1.query:string
slow_queries.1.revision:number=7
slow_queries.1.routes.0:string
slow_queries.1.routes.1:string
slow_queries.1.stages_ms.cache_insert:number
slow_queries.1.stages_ms.execute:number
slow_queries.1.total_ms:number
subscriptions.active:number=1
subscriptions.coalesced:number=0
subscriptions.evaluations:number=7
subscriptions.fired:number=7
subscriptions.skipped_disjoint:number=2
)";

const char kTwoShardRouterGolden[] = R"(answer_cache.bytes:number=2130
answer_cache.declined:number=0
answer_cache.enabled:bool=true
answer_cache.entries:number=12
answer_cache.evictions:number=0
answer_cache.hits:number=6
answer_cache.inserts:number=23
answer_cache.invalidations:number=11
answer_cache.misses:number=23
answer_cache.remapped:number=0
answer_cache.retained:number=5
exec.skipped_segments:number=0
latency_ms:summary=29
metrics.stage.answer_cache_lookup_ms:summary=2
metrics.stage.cache_insert_ms:summary=23
metrics.stage.doc_lookup_ms:summary=2
metrics.stage.execute_ms:summary=23
metrics.stage.plan_lookup_ms:summary=2
metrics.update.affected_scan_ms:summary=8
metrics.update.count:number=8
metrics.update.invalidated_entries:summary=8
metrics.update.remapped_entries:summary=8
metrics.update.retained_entries:summary=8
metrics.update.splice_ms:summary=8
metrics.update.subscription_eval_ms:summary=7
plan_cache.canonical_hits:number=0
plan_cache.entries:number=6
plan_cache.evictions:number=22
plan_cache.hits:number=1
plan_cache.misses:number=28
plan_cache.parse_failures:number=1
routes.core-linear:summary=6
routes.cvt:summary=11
routes.pf-frontier:summary=6
routes.pf-indexed:summary=6
schema:string
service.batches:number=4
service.documents:number=3
service.failures:number=8
service.requests:number=37
service.slow_queries:number=29
service.slow_query_threshold_ms:number
service.tracing:bool=true
sharding.shards:number=2
shards.0.answer_cache.bytes:number=1412
shards.0.answer_cache.declined:number=0
shards.0.answer_cache.enabled:bool=true
shards.0.answer_cache.entries:number=8
shards.0.answer_cache.evictions:number=0
shards.0.answer_cache.hits:number=4
shards.0.answer_cache.inserts:number=12
shards.0.answer_cache.invalidations:number=4
shards.0.answer_cache.misses:number=12
shards.0.answer_cache.remapped:number=0
shards.0.answer_cache.retained:number=4
shards.0.exec.skipped_segments:number=0
shards.0.latency_ms:summary=16
shards.0.metrics.stage.answer_cache_lookup_ms:summary=1
shards.0.metrics.stage.cache_insert_ms:summary=12
shards.0.metrics.stage.doc_lookup_ms:summary=1
shards.0.metrics.stage.execute_ms:summary=12
shards.0.metrics.stage.plan_lookup_ms:summary=1
shards.0.metrics.update.affected_scan_ms:summary=4
shards.0.metrics.update.count:number=4
shards.0.metrics.update.invalidated_entries:summary=4
shards.0.metrics.update.remapped_entries:summary=4
shards.0.metrics.update.retained_entries:summary=4
shards.0.metrics.update.splice_ms:summary=4
shards.0.metrics.update.subscription_eval_ms:summary=4
shards.0.plan_cache.canonical_hits:number=0
shards.0.plan_cache.entries:number=3
shards.0.plan_cache.evictions:number=13
shards.0.plan_cache.hits:number=0
shards.0.plan_cache.misses:number=16
shards.0.plan_cache.parse_failures:number=0
shards.0.routes.core-linear:summary=3
shards.0.routes.cvt:summary=6
shards.0.routes.pf-frontier:summary=3
shards.0.routes.pf-indexed:summary=3
shards.0.schema:string
shards.0.service.batches:number=2
shards.0.service.documents:number=2
shards.0.service.failures:number=0
shards.0.service.requests:number=16
shards.0.service.slow_queries:number=16
shards.0.service.slow_query_threshold_ms:number
shards.0.service.tracing:bool=true
shards.0.shard:number=0
shards.0.slow_queries.0.doc_key:string
shards.0.slow_queries.0.query:string
shards.0.slow_queries.0.revision:number=4
shards.0.slow_queries.0.routes.0:string
shards.0.slow_queries.0.stages_ms.cache_insert:number
shards.0.slow_queries.0.stages_ms.execute:number
shards.0.slow_queries.0.total_ms:number
shards.0.slow_queries.1.doc_key:string
shards.0.slow_queries.1.query:string
shards.0.slow_queries.1.revision:number=4
shards.0.slow_queries.1.routes.0:string
shards.0.slow_queries.1.routes.1:string
shards.0.slow_queries.1.stages_ms.cache_insert:number
shards.0.slow_queries.1.stages_ms.execute:number
shards.0.slow_queries.1.total_ms:number
shards.0.subscriptions.active:number=1
shards.0.subscriptions.coalesced:number=0
shards.0.subscriptions.evaluations:number=4
shards.0.subscriptions.fired:number=3
shards.0.subscriptions.skipped_disjoint:number=2
shards.1.answer_cache.bytes:number=718
shards.1.answer_cache.declined:number=0
shards.1.answer_cache.enabled:bool=true
shards.1.answer_cache.entries:number=4
shards.1.answer_cache.evictions:number=0
shards.1.answer_cache.hits:number=2
shards.1.answer_cache.inserts:number=11
shards.1.answer_cache.invalidations:number=7
shards.1.answer_cache.misses:number=11
shards.1.answer_cache.remapped:number=0
shards.1.answer_cache.retained:number=1
shards.1.exec.skipped_segments:number=0
shards.1.latency_ms:summary=13
shards.1.metrics.stage.answer_cache_lookup_ms:summary=1
shards.1.metrics.stage.cache_insert_ms:summary=11
shards.1.metrics.stage.doc_lookup_ms:summary=1
shards.1.metrics.stage.execute_ms:summary=11
shards.1.metrics.stage.plan_lookup_ms:summary=1
shards.1.metrics.update.affected_scan_ms:summary=4
shards.1.metrics.update.count:number=4
shards.1.metrics.update.invalidated_entries:summary=4
shards.1.metrics.update.remapped_entries:summary=4
shards.1.metrics.update.retained_entries:summary=4
shards.1.metrics.update.splice_ms:summary=4
shards.1.metrics.update.subscription_eval_ms:summary=3
shards.1.plan_cache.canonical_hits:number=0
shards.1.plan_cache.entries:number=3
shards.1.plan_cache.evictions:number=9
shards.1.plan_cache.hits:number=1
shards.1.plan_cache.misses:number=12
shards.1.plan_cache.parse_failures:number=1
shards.1.routes.core-linear:summary=3
shards.1.routes.cvt:summary=5
shards.1.routes.pf-frontier:summary=3
shards.1.routes.pf-indexed:summary=3
shards.1.schema:string
shards.1.service.batches:number=2
shards.1.service.documents:number=1
shards.1.service.failures:number=8
shards.1.service.requests:number=21
shards.1.service.slow_queries:number=13
shards.1.service.slow_query_threshold_ms:number
shards.1.service.tracing:bool=true
shards.1.shard:number=1
shards.1.slow_queries.0.doc_key:string
shards.1.slow_queries.0.query:string
shards.1.slow_queries.0.revision:number=3
shards.1.slow_queries.0.routes.0:string
shards.1.slow_queries.0.stages_ms.cache_insert:number
shards.1.slow_queries.0.stages_ms.execute:number
shards.1.slow_queries.0.total_ms:number
shards.1.slow_queries.1.doc_key:string
shards.1.slow_queries.1.query:string
shards.1.slow_queries.1.revision:number=3
shards.1.slow_queries.1.routes.0:string
shards.1.slow_queries.1.routes.1:string
shards.1.slow_queries.1.stages_ms.cache_insert:number
shards.1.slow_queries.1.stages_ms.execute:number
shards.1.slow_queries.1.total_ms:number
shards.1.subscriptions.active:number=1
shards.1.subscriptions.coalesced:number=0
shards.1.subscriptions.evaluations:number=3
shards.1.subscriptions.fired:number=4
shards.1.subscriptions.skipped_disjoint:number=0
slow_queries.0.doc_key:string
slow_queries.0.query:string
slow_queries.0.revision:number=4
slow_queries.0.routes.0:string
slow_queries.0.stages_ms.cache_insert:number
slow_queries.0.stages_ms.execute:number
slow_queries.0.total_ms:number
slow_queries.1.doc_key:string
slow_queries.1.query:string
slow_queries.1.revision:number=4
slow_queries.1.routes.0:string
slow_queries.1.routes.1:string
slow_queries.1.stages_ms.cache_insert:number
slow_queries.1.stages_ms.execute:number
slow_queries.1.total_ms:number
slow_queries.2.doc_key:string
slow_queries.2.query:string
slow_queries.2.revision:number=3
slow_queries.2.routes.0:string
slow_queries.2.stages_ms.cache_insert:number
slow_queries.2.stages_ms.execute:number
slow_queries.2.total_ms:number
slow_queries.3.doc_key:string
slow_queries.3.query:string
slow_queries.3.revision:number=3
slow_queries.3.routes.0:string
slow_queries.3.routes.1:string
slow_queries.3.stages_ms.cache_insert:number
slow_queries.3.stages_ms.execute:number
slow_queries.3.total_ms:number
subscriptions.active:number=2
subscriptions.coalesced:number=0
subscriptions.evaluations:number=7
subscriptions.fired:number=7
subscriptions.skipped_disjoint:number=2
)";

const char kDurableTwoShardRouterGolden[] = R"(answer_cache.bytes:number=2130
answer_cache.declined:number=0
answer_cache.enabled:bool=true
answer_cache.entries:number=12
answer_cache.evictions:number=0
answer_cache.hits:number=6
answer_cache.inserts:number=23
answer_cache.invalidations:number=11
answer_cache.misses:number=23
answer_cache.remapped:number=0
answer_cache.retained:number=5
exec.skipped_segments:number=0
latency_ms:summary=29
metrics.stage.answer_cache_lookup_ms:summary=2
metrics.stage.cache_insert_ms:summary=23
metrics.stage.doc_lookup_ms:summary=2
metrics.stage.execute_ms:summary=23
metrics.stage.plan_lookup_ms:summary=2
metrics.update.affected_scan_ms:summary=8
metrics.update.count:number=8
metrics.update.invalidated_entries:summary=8
metrics.update.remapped_entries:summary=8
metrics.update.retained_entries:summary=8
metrics.update.splice_ms:summary=8
metrics.update.subscription_eval_ms:summary=7
metrics.wal.append_ms:summary=8
metrics.wal.bytes:number=5121
metrics.wal.checkpoint_ms:summary=2
metrics.wal.fsync_batch_ms:summary=8
metrics.wal.records:number=8
metrics.wal.replay_ms:summary=2
metrics.wal.torn_tail:number=0
plan_cache.canonical_hits:number=0
plan_cache.entries:number=6
plan_cache.evictions:number=22
plan_cache.hits:number=1
plan_cache.misses:number=28
plan_cache.parse_failures:number=1
routes.core-linear:summary=6
routes.cvt:summary=11
routes.pf-frontier:summary=6
routes.pf-indexed:summary=6
schema:string
service.batches:number=4
service.documents:number=3
service.failures:number=8
service.requests:number=37
service.slow_queries:number=29
service.slow_query_threshold_ms:number
service.tracing:bool=true
sharding.shards:number=2
shards.0.answer_cache.bytes:number=1412
shards.0.answer_cache.declined:number=0
shards.0.answer_cache.enabled:bool=true
shards.0.answer_cache.entries:number=8
shards.0.answer_cache.evictions:number=0
shards.0.answer_cache.hits:number=4
shards.0.answer_cache.inserts:number=12
shards.0.answer_cache.invalidations:number=4
shards.0.answer_cache.misses:number=12
shards.0.answer_cache.remapped:number=0
shards.0.answer_cache.retained:number=4
shards.0.exec.skipped_segments:number=0
shards.0.latency_ms:summary=16
shards.0.metrics.stage.answer_cache_lookup_ms:summary=1
shards.0.metrics.stage.cache_insert_ms:summary=12
shards.0.metrics.stage.doc_lookup_ms:summary=1
shards.0.metrics.stage.execute_ms:summary=12
shards.0.metrics.stage.plan_lookup_ms:summary=1
shards.0.metrics.update.affected_scan_ms:summary=4
shards.0.metrics.update.count:number=4
shards.0.metrics.update.invalidated_entries:summary=4
shards.0.metrics.update.remapped_entries:summary=4
shards.0.metrics.update.retained_entries:summary=4
shards.0.metrics.update.splice_ms:summary=4
shards.0.metrics.update.subscription_eval_ms:summary=4
shards.0.metrics.wal.append_ms:summary=4
shards.0.metrics.wal.bytes:number=2796
shards.0.metrics.wal.checkpoint_ms:summary=1
shards.0.metrics.wal.fsync_batch_ms:summary=4
shards.0.metrics.wal.records:number=4
shards.0.metrics.wal.replay_ms:summary=1
shards.0.metrics.wal.torn_tail:number=0
shards.0.plan_cache.canonical_hits:number=0
shards.0.plan_cache.entries:number=3
shards.0.plan_cache.evictions:number=13
shards.0.plan_cache.hits:number=0
shards.0.plan_cache.misses:number=16
shards.0.plan_cache.parse_failures:number=0
shards.0.routes.core-linear:summary=3
shards.0.routes.cvt:summary=6
shards.0.routes.pf-frontier:summary=3
shards.0.routes.pf-indexed:summary=3
shards.0.schema:string
shards.0.service.batches:number=2
shards.0.service.documents:number=2
shards.0.service.failures:number=0
shards.0.service.requests:number=16
shards.0.service.slow_queries:number=16
shards.0.service.slow_query_threshold_ms:number
shards.0.service.tracing:bool=true
shards.0.shard:number=0
shards.0.slow_queries.0.doc_key:string
shards.0.slow_queries.0.query:string
shards.0.slow_queries.0.revision:number=4
shards.0.slow_queries.0.routes.0:string
shards.0.slow_queries.0.stages_ms.cache_insert:number
shards.0.slow_queries.0.stages_ms.execute:number
shards.0.slow_queries.0.total_ms:number
shards.0.slow_queries.1.doc_key:string
shards.0.slow_queries.1.query:string
shards.0.slow_queries.1.revision:number=4
shards.0.slow_queries.1.routes.0:string
shards.0.slow_queries.1.routes.1:string
shards.0.slow_queries.1.stages_ms.cache_insert:number
shards.0.slow_queries.1.stages_ms.execute:number
shards.0.slow_queries.1.total_ms:number
shards.0.subscriptions.active:number=1
shards.0.subscriptions.coalesced:number=0
shards.0.subscriptions.evaluations:number=4
shards.0.subscriptions.fired:number=3
shards.0.subscriptions.skipped_disjoint:number=2
shards.1.answer_cache.bytes:number=718
shards.1.answer_cache.declined:number=0
shards.1.answer_cache.enabled:bool=true
shards.1.answer_cache.entries:number=4
shards.1.answer_cache.evictions:number=0
shards.1.answer_cache.hits:number=2
shards.1.answer_cache.inserts:number=11
shards.1.answer_cache.invalidations:number=7
shards.1.answer_cache.misses:number=11
shards.1.answer_cache.remapped:number=0
shards.1.answer_cache.retained:number=1
shards.1.exec.skipped_segments:number=0
shards.1.latency_ms:summary=13
shards.1.metrics.stage.answer_cache_lookup_ms:summary=1
shards.1.metrics.stage.cache_insert_ms:summary=11
shards.1.metrics.stage.doc_lookup_ms:summary=1
shards.1.metrics.stage.execute_ms:summary=11
shards.1.metrics.stage.plan_lookup_ms:summary=1
shards.1.metrics.update.affected_scan_ms:summary=4
shards.1.metrics.update.count:number=4
shards.1.metrics.update.invalidated_entries:summary=4
shards.1.metrics.update.remapped_entries:summary=4
shards.1.metrics.update.retained_entries:summary=4
shards.1.metrics.update.splice_ms:summary=4
shards.1.metrics.update.subscription_eval_ms:summary=3
shards.1.metrics.wal.append_ms:summary=4
shards.1.metrics.wal.bytes:number=2325
shards.1.metrics.wal.checkpoint_ms:summary=1
shards.1.metrics.wal.fsync_batch_ms:summary=4
shards.1.metrics.wal.records:number=4
shards.1.metrics.wal.replay_ms:summary=1
shards.1.metrics.wal.torn_tail:number=0
shards.1.plan_cache.canonical_hits:number=0
shards.1.plan_cache.entries:number=3
shards.1.plan_cache.evictions:number=9
shards.1.plan_cache.hits:number=1
shards.1.plan_cache.misses:number=12
shards.1.plan_cache.parse_failures:number=1
shards.1.routes.core-linear:summary=3
shards.1.routes.cvt:summary=5
shards.1.routes.pf-frontier:summary=3
shards.1.routes.pf-indexed:summary=3
shards.1.schema:string
shards.1.service.batches:number=2
shards.1.service.documents:number=1
shards.1.service.failures:number=8
shards.1.service.requests:number=21
shards.1.service.slow_queries:number=13
shards.1.service.slow_query_threshold_ms:number
shards.1.service.tracing:bool=true
shards.1.shard:number=1
shards.1.slow_queries.0.doc_key:string
shards.1.slow_queries.0.query:string
shards.1.slow_queries.0.revision:number=3
shards.1.slow_queries.0.routes.0:string
shards.1.slow_queries.0.stages_ms.cache_insert:number
shards.1.slow_queries.0.stages_ms.execute:number
shards.1.slow_queries.0.total_ms:number
shards.1.slow_queries.1.doc_key:string
shards.1.slow_queries.1.query:string
shards.1.slow_queries.1.revision:number=3
shards.1.slow_queries.1.routes.0:string
shards.1.slow_queries.1.routes.1:string
shards.1.slow_queries.1.stages_ms.cache_insert:number
shards.1.slow_queries.1.stages_ms.execute:number
shards.1.slow_queries.1.total_ms:number
shards.1.subscriptions.active:number=1
shards.1.subscriptions.coalesced:number=0
shards.1.subscriptions.evaluations:number=3
shards.1.subscriptions.fired:number=4
shards.1.subscriptions.skipped_disjoint:number=0
slow_queries.0.doc_key:string
slow_queries.0.query:string
slow_queries.0.revision:number=4
slow_queries.0.routes.0:string
slow_queries.0.stages_ms.cache_insert:number
slow_queries.0.stages_ms.execute:number
slow_queries.0.total_ms:number
slow_queries.1.doc_key:string
slow_queries.1.query:string
slow_queries.1.revision:number=4
slow_queries.1.routes.0:string
slow_queries.1.routes.1:string
slow_queries.1.stages_ms.cache_insert:number
slow_queries.1.stages_ms.execute:number
slow_queries.1.total_ms:number
slow_queries.2.doc_key:string
slow_queries.2.query:string
slow_queries.2.revision:number=3
slow_queries.2.routes.0:string
slow_queries.2.stages_ms.cache_insert:number
slow_queries.2.stages_ms.execute:number
slow_queries.2.total_ms:number
slow_queries.3.doc_key:string
slow_queries.3.query:string
slow_queries.3.revision:number=3
slow_queries.3.routes.0:string
slow_queries.3.routes.1:string
slow_queries.3.stages_ms.cache_insert:number
slow_queries.3.stages_ms.execute:number
slow_queries.3.total_ms:number
subscriptions.active:number=2
subscriptions.coalesced:number=0
subscriptions.evaluations:number=7
subscriptions.fired:number=7
subscriptions.skipped_disjoint:number=2
)";

TEST(StatsDocumentGoldenTest, SingleService) {
  service::QueryService svc(GoldenOptions());
  RunGoldenScript(svc);
  EXPECT_EQ(GoldenLeaves(svc), kSingleServiceGolden);
}

TEST(StatsDocumentGoldenTest, TwoShardRouter) {
  service::ShardedQueryService::Options options;
  options.shards = 2;
  options.shard = GoldenOptions();
  service::ShardedQueryService router(options);
  RunGoldenScript(router);
  EXPECT_EQ(GoldenLeaves(router), kTwoShardRouterGolden);
}

TEST(StatsDocumentGoldenTest, DurableTwoShardRouter) {
  const std::string dir = ::testing::TempDir() + "gkx_stats_golden_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    service::ShardedQueryService::Options options;
    options.shards = 2;
    options.shard = GoldenOptions();
    options.shard.wal.fsync = false;  // the counts are pinned, not the disk
    options.wal_dir = dir;
    service::ShardedQueryService router(options);
    ASSERT_TRUE(router.shard(0).wal_enabled());
    RunGoldenScript(router);
    EXPECT_EQ(GoldenLeaves(router), kDurableTwoShardRouterGolden);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gkx::obs
