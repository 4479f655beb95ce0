// ShardedQueryService — the router over shared-nothing QueryService
// shards (src/service/sharded_service.hpp).
//   * ShardMap: FNV-1a golden fingerprints (rehash stability is a
//     durability contract — a silent change would strand every per-shard
//     WAL directory), modular assignment, and spread.
//   * Router ≡ N=1 differential: identical corpora and traffic through
//     shards ∈ {1, 2, 4} produce byte-identical answer digests and
//     identical per-document subscription diff streams.
//   * Degenerate corpora: empty shards, a single document.
//   * SubmitBatch partial failure: a shard whose request throws poisons
//     only that shard's slots, on the forked and on the inline path.
//   * Where batches run: a warm batch stays on the calling thread, a cold
//     one still reaches the pool.
//   * Stats: cross-shard sums and the ExportStats shards[] breakdown.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/check.hpp"
#include "eval/engine.hpp"
#include "obs/json.hpp"
#include "service/shard_map.hpp"
#include "service/sharded_service.hpp"
#include "testkit/oracle.hpp"
#include "tests/serving_threads.hpp"
#include "xml/edit.hpp"
#include "xml/parser.hpp"

namespace gkx::service {
namespace {

// ------------------------------------------------------------------ ShardMap

TEST(ShardMapTest, GoldenFingerprints) {
  // Pinned FNV-1a 64 values. If any of these change, existing sharded WAL
  // directories become unroutable — that is a data-loss bug, not a test to
  // update.
  EXPECT_EQ(ShardMap::Fingerprint(""), 14695981039346656037ull);
  EXPECT_EQ(ShardMap::Fingerprint("doc0"), 15872862563901681407ull);
  EXPECT_EQ(ShardMap::Fingerprint("doc1"), 15872861464390053196ull);
  EXPECT_EQ(ShardMap::Fingerprint("gottlob"), 77082705199072292ull);
  EXPECT_EQ(ShardMap::Fingerprint("koch"), 127775170418808788ull);
  EXPECT_EQ(ShardMap::Fingerprint("pichler"), 12506886017217559388ull);
}

TEST(ShardMapTest, AssignmentIsFingerprintModuloShards) {
  ShardMap two(2), four(4);
  EXPECT_EQ(two.ShardOf("doc0"), 1);
  EXPECT_EQ(two.ShardOf("doc1"), 0);
  EXPECT_EQ(four.ShardOf("doc0"), 3);
  EXPECT_EQ(four.ShardOf("doc1"), 0);
  EXPECT_EQ(four.ShardOf("doc7"), 2);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(static_cast<uint64_t>(four.ShardOf(key)),
              ShardMap::Fingerprint(key) % 4);
    // Stability across repeated construction (no hidden per-instance salt).
    EXPECT_EQ(ShardMap(4).ShardOf(key), four.ShardOf(key));
  }
}

TEST(ShardMapTest, SpreadsRealisticKeysAcrossShards) {
  ShardMap map(4);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 1000; ++i) ++counts[map.ShardOf("doc" + std::to_string(i))];
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(counts[shard], 150) << "shard " << shard;  // ~250 expected
  }
}

// ------------------------------------------------------------- differential

std::string DocKey(int k) { return "doc" + std::to_string(k); }

std::string DocXml(int k) {
  const std::string t = std::to_string(k);
  return "<d" + t + "><b" + t + "><a" + t + ">x</a" + t + "><a" + t + ">y</a" +
         t + "></b" + t + "><c" + t + ">z</c" + t + "></d" + t + ">";
}

struct StreamEvent {
  std::string doc_key;
  bool doc_removed = false;
  eval::NodeSet added;
  eval::NodeSet removed;

  bool operator==(const StreamEvent& other) const {
    return doc_key == other.doc_key && doc_removed == other.doc_removed &&
           added == other.added && removed == other.removed;
  }
};

/// Runs the same corpus + churn + traffic at a given shard count and
/// returns (answer digests in request order, per-doc subscription streams).
/// Shard-local revision counters legitimately differ across shard counts,
/// so streams are compared on (doc, removed-flag, added, removed) only.
struct DifferentialRun {
  std::vector<std::string> digests;
  std::map<std::string, std::vector<StreamEvent>> streams;
};

DifferentialRun RunDifferential(int shards, int docs) {
  DifferentialRun run;
  ShardedQueryService::Options options;
  options.shards = shards;
  ShardedQueryService service(options);

  for (int k = 0; k < docs; ++k) {
    GKX_CHECK(service.RegisterXml(DocKey(k), DocXml(k)).ok());
  }

  std::mutex mu;
  for (int k = 0; k < docs; ++k) {
    const std::string key = DocKey(k);
    auto sub = service.Subscribe(
        key, "//a" + std::to_string(k),
        [&run, &mu, key](const mview::SubscriptionEvent& event) {
          std::lock_guard<std::mutex> lock(mu);
          run.streams[key].push_back(
              {event.doc_key, event.doc_removed, event.added, event.removed});
        });
    GKX_CHECK(sub.ok());
  }
  service.FlushSubscriptions();

  // Churn: structural edit on every third doc, text churn elsewhere, one
  // remove + re-register. Then a mixed batch over the full corpus.
  for (int k = 0; k < docs; ++k) {
    xml::SubtreeEdit edit;
    if (k % 3 == 0) {
      const std::string t = std::to_string(k);
      edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
      edit.target = 0;
      edit.position = 0;
      auto subtree = xml::ParseDocument("<a" + t + ">new</a" + t + ">");
      GKX_CHECK(subtree.ok());
      edit.subtree = std::move(*subtree);
    } else {
      edit.kind = xml::SubtreeEdit::Kind::kSetText;
      edit.target = 2;
      edit.text = "churned";
    }
    GKX_CHECK(service.UpdateDocument(DocKey(k), edit).ok());
    // Flush per mutation: whether two pending diffs coalesce depends on
    // delivery timing, and the differential needs identical streams, not
    // just identical final states.
    service.FlushSubscriptions();
  }
  EXPECT_TRUE(service.RemoveDocument(DocKey(0)));
  EXPECT_FALSE(service.RemoveDocument("no-such-doc"));
  service.FlushSubscriptions();
  GKX_CHECK(service.RegisterXml(DocKey(0), DocXml(0)).ok());
  service.FlushSubscriptions();

  std::vector<ShardedQueryService::Request> requests;
  for (int k = 0; k < docs; ++k) {
    const std::string t = std::to_string(k);
    requests.push_back({DocKey(k), "//a" + t});
    requests.push_back({DocKey(k), "count(//a" + t + ")"});
    requests.push_back({DocKey(k), "/d" + t + "/b" + t + "/a" + t});
  }
  auto answers = service.SubmitBatch(requests);
  GKX_CHECK(answers.size() == requests.size());
  for (auto& answer : answers) {
    GKX_CHECK(answer.ok());
    run.digests.push_back(testkit::AnswerDigest(answer->value));
  }
  EXPECT_EQ(service.document_count(), static_cast<size_t>(docs));
  return run;
}

TEST(ShardedServiceTest, RouterMatchesSingleServiceExactly) {
  const int kDocs = 12;
  DifferentialRun baseline = RunDifferential(1, kDocs);
  for (int shards : {2, 4}) {
    DifferentialRun sharded = RunDifferential(shards, kDocs);
    ASSERT_EQ(sharded.digests.size(), baseline.digests.size()) << shards;
    for (size_t i = 0; i < baseline.digests.size(); ++i) {
      EXPECT_EQ(sharded.digests[i], baseline.digests[i])
          << "shards=" << shards << " request " << i;
    }
    ASSERT_EQ(sharded.streams.size(), baseline.streams.size()) << shards;
    for (const auto& [key, events] : baseline.streams) {
      ASSERT_TRUE(sharded.streams.count(key)) << shards << " " << key;
      EXPECT_EQ(sharded.streams[key].size(), events.size())
          << "shards=" << shards << " " << key;
      if (sharded.streams[key].size() == events.size()) {
        for (size_t i = 0; i < events.size(); ++i) {
          EXPECT_TRUE(sharded.streams[key][i] == events[i])
              << "shards=" << shards << " " << key << " event " << i;
        }
      }
    }
  }
}

TEST(ShardedServiceTest, SingleDocumentCorpusLeavesShardsEmpty) {
  ShardedQueryService::Options options;
  options.shards = 4;
  ShardedQueryService service(options);
  GKX_CHECK(service.RegisterXml("doc0", DocXml(0)).ok());
  EXPECT_EQ(service.document_count(), 1u);

  // Every request lands on the one owning shard; empty shards answer their
  // empty sub-batches without incident.
  std::vector<ShardedQueryService::Request> requests(
      8, {"doc0", "count(//a0)"});
  auto answers = service.SubmitBatch(requests);
  ASSERT_EQ(answers.size(), 8u);
  for (const auto& answer : answers) {
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->value.type(), xpath::ValueType::kNumber);
    EXPECT_EQ(answer->value.number(), 2.0);
  }
  // An empty batch is fine too.
  EXPECT_TRUE(service.SubmitBatch({}).empty());

  const int owner = service.ShardOf("doc0");
  for (int s = 0; s < service.shard_count(); ++s) {
    const ServiceStats shard = service.shard(s).Stats();
    EXPECT_EQ(shard.requests, s == owner ? 8 : 0) << s;
    EXPECT_EQ(shard.documents, s == owner ? 1 : 0) << s;
  }
}

TEST(ShardedServiceTest, UnknownKeysFailPerRequestNotPerBatch) {
  ShardedQueryService::Options options;
  options.shards = 2;
  ShardedQueryService service(options);
  GKX_CHECK(service.RegisterXml("doc0", DocXml(0)).ok());
  GKX_CHECK(service.RegisterXml("doc1", DocXml(1)).ok());

  std::vector<ShardedQueryService::Request> requests = {
      {"doc0", "count(//a0)"},
      {"missing-a", "count(//a0)"},
      {"doc1", "count(//a1)"},
      {"missing-b", "count(//a1)"},
  };
  auto answers = service.SubmitBatch(requests);
  ASSERT_EQ(answers.size(), 4u);
  EXPECT_TRUE(answers[0].ok());
  EXPECT_FALSE(answers[1].ok());
  EXPECT_TRUE(answers[2].ok());
  EXPECT_FALSE(answers[3].ok());
}

// -------------------------------------------------------- partial failure

TEST(ShardedServiceTest, ShardFailurePoisonsOnlyItsOwnSlots) {
  // The answer tap (a test-only fault hook inside each shard) throws on any
  // numeric answer equal to 41 — only doc1's count query trips it. The
  // owning shard's whole sub-batch executor dies; the router must still
  // deliver every sibling shard's results.
  ShardedQueryService::Options options;
  options.shards = 2;
  options.shard.answer_tap = [](eval::Engine::Answer* answer) {
    if (answer->value.type() == xpath::ValueType::kNumber &&
        answer->value.number() == 41.0) {
      throw std::runtime_error("injected shard fault");
    }
  };
  ShardedQueryService service(options);
  // doc1 gets 41 <a1> leaves; doc0 keeps its 2 <a0> leaves. They live on
  // different shards (pinned by the ShardMap goldens above).
  ASSERT_NE(service.ShardOf("doc0"), service.ShardOf("doc1"));
  std::string xml1 = "<d1>";
  for (int i = 0; i < 41; ++i) xml1 += "<a1>v</a1>";
  xml1 += "</d1>";
  GKX_CHECK(service.RegisterXml("doc0", DocXml(0)).ok());
  GKX_CHECK(service.RegisterXml("doc1", xml1).ok());

  std::vector<ShardedQueryService::Request> requests = {
      {"doc0", "count(//a0)"},
      {"doc1", "count(//a1)"},  // trips the fault
      {"doc0", "//a0"},
      {"doc1", "//a1"},  // same shard as the fault: poisoned with it
  };
  auto answers = service.SubmitBatch(requests);
  ASSERT_EQ(answers.size(), 4u);

  EXPECT_TRUE(answers[0].ok());
  EXPECT_EQ(answers[0]->value.number(), 2.0);
  EXPECT_TRUE(answers[2].ok());

  const int faulty = service.ShardOf("doc1");
  for (size_t i : {size_t{1}, size_t{3}}) {
    ASSERT_FALSE(answers[i].ok()) << i;
    EXPECT_EQ(answers[i].status().code(), StatusCode::kInternal) << i;
    EXPECT_NE(answers[i].status().message().find(
                  "shard " + std::to_string(faulty) + " sub-batch failed"),
              std::string::npos)
        << answers[i].status().message();
    EXPECT_NE(answers[i].status().message().find("injected shard fault"),
              std::string::npos)
        << answers[i].status().message();
  }
}

TEST(ShardedServiceTest, WarmShardFailurePoisonsOnlyItsOwnSlots) {
  // The same fault on the inline path: the batch is warm, so every request
  // is an answer-cache hit served on the calling thread, and the fault
  // fires there. It must still poison exactly the faulty shard's slots.
  std::atomic<bool> armed{false};
  std::thread::id fault_thread;
  ShardedQueryService::Options options;
  options.shards = 2;
  options.shard.answer_tap = [&](eval::Engine::Answer* answer) {
    if (armed.load() && answer->value.type() == xpath::ValueType::kNumber &&
        answer->value.number() == 41.0) {
      fault_thread = std::this_thread::get_id();
      throw std::runtime_error("injected shard fault");
    }
  };
  ShardedQueryService service(options);
  ASSERT_NE(service.ShardOf("doc0"), service.ShardOf("doc1"));
  std::string xml1 = "<d1>";
  for (int i = 0; i < 41; ++i) xml1 += "<a1>v</a1>";
  xml1 += "</d1>";
  GKX_CHECK(service.RegisterXml("doc0", DocXml(0)).ok());
  GKX_CHECK(service.RegisterXml("doc1", xml1).ok());

  std::vector<ShardedQueryService::Request> requests = {
      {"doc0", "count(//a0)"},
      {"doc1", "count(//a1)"},  // trips the fault once armed
      {"doc0", "//a0"},
      {"doc1", "//a1"},  // same shard as the fault: poisoned with it
  };
  for (const auto& answer : service.SubmitBatch(requests)) {
    ASSERT_TRUE(answer.ok());
  }
  const int64_t hits = service.Stats().answer_cache.hits;
  armed.store(true);
  std::vector<Result<ShardedQueryService::Answer>> answers;
  ASSERT_NO_THROW(answers = service.SubmitBatch(requests));
  ASSERT_EQ(answers.size(), 4u);
  // Requests 0-2 hit the cache; the faulty shard serves nothing after the
  // fault, so request 3 never reaches it.
  EXPECT_EQ(service.Stats().answer_cache.hits - hits, 3);
  EXPECT_EQ(fault_thread, std::this_thread::get_id());

  EXPECT_TRUE(answers[0].ok());
  EXPECT_EQ(answers[0]->value.number(), 2.0);
  EXPECT_TRUE(answers[2].ok());
  const int faulty = service.ShardOf("doc1");
  for (size_t i : {size_t{1}, size_t{3}}) {
    ASSERT_FALSE(answers[i].ok()) << i;
    EXPECT_EQ(answers[i].status().code(), StatusCode::kInternal) << i;
    EXPECT_EQ(answers[i].status().message(),
              "shard " + std::to_string(faulty) +
                  " sub-batch failed: injected shard fault");
  }
}

// -------------------------------------------------------- where batches run

// `n` requests cycling over DocKey/DocXml documents 0..7, two queries each.
std::vector<ShardedQueryService::Request> CycledRequests(size_t n) {
  std::vector<ShardedQueryService::Request> requests;
  for (size_t i = 0; requests.size() < n; ++i) {
    const int k = static_cast<int>(i % 8);
    const std::string t = std::to_string(k);
    requests.push_back(
        {DocKey(k), i / 8 % 2 == 0 ? "//a" + t : "count(//a" + t + ")"});
  }
  return requests;
}

// DocKey/DocXml documents 0..7 on a 2-shard router whose shards share one
// width-2 pool, with an answer tap recording which threads serve.
struct TappedRouter {
  TappedRouter()
      : router([&] {
          ShardedQueryService::Options options;
          options.shards = 2;
          options.pool = &pool;
          options.shard.pool = &pool;
          options.shard.answer_tap = serving.Tap();
          return options;
        }()) {
    for (int k = 0; k < 8; ++k) {
      GKX_CHECK(router.RegisterXml(DocKey(k), DocXml(k)).ok());
    }
  }

  ThreadPool pool{2};
  ServingThreads serving;
  ShardedQueryService router;
};

TEST(ShardedServiceTest, WarmBatchIsServedOnTheCallingThread) {
  TappedRouter tapped;
  const std::vector<ShardedQueryService::Request> batch = CycledRequests(64);
  for (const auto& answer : tapped.router.SubmitBatch(batch)) {
    ASSERT_TRUE(answer.ok());
  }

  const ServiceStats before = tapped.router.Stats();
  tapped.serving.Reset();
  tapped.serving.Dwell(std::chrono::microseconds(100));
  for (const auto& answer : tapped.router.SubmitBatch(batch)) {
    ASSERT_TRUE(answer.ok());
  }
  const ServiceStats after = tapped.router.Stats();
  EXPECT_EQ(after.answer_cache.hits - before.answer_cache.hits, 64);
  EXPECT_EQ(after.batches - before.batches, 2);  // both shards were active
  EXPECT_EQ(tapped.serving.calls(), 64);
  EXPECT_EQ(tapped.serving.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ShardedServiceTest, ColdBatchStillForksOntoThePool) {
  TappedRouter tapped;
  tapped.serving.ArmLatch(std::chrono::seconds(10));
  for (const auto& answer : tapped.router.SubmitBatch(CycledRequests(16))) {
    ASSERT_TRUE(answer.ok());
  }
  EXPECT_EQ(tapped.router.Stats().answer_cache.misses, 16);
  EXPECT_FALSE(tapped.serving.timed_out());
  EXPECT_GE(tapped.serving.threads().size(), 2u);
}

// ------------------------------------------------------------------- stats

TEST(ShardedServiceTest, StatsSumAcrossShardsAndExportBreaksDown) {
  ShardedQueryService::Options options;
  options.shards = 2;
  ShardedQueryService service(options);
  const int kDocs = 8;
  for (int k = 0; k < kDocs; ++k) {
    GKX_CHECK(service.RegisterXml(DocKey(k), DocXml(k)).ok());
  }
  std::vector<ShardedQueryService::Request> requests;
  for (int k = 0; k < kDocs; ++k) {
    requests.push_back({DocKey(k), "//a" + std::to_string(k)});
    requests.push_back({DocKey(k), "//a" + std::to_string(k)});  // cache hit
  }
  auto answers = service.SubmitBatch(requests);
  for (const auto& answer : answers) ASSERT_TRUE(answer.ok());

  ServiceStats agg = service.Stats();
  ASSERT_EQ(service.shard_count(), 2);
  const std::vector<ServiceStats> per_shard = {service.shard(0).Stats(),
                                               service.shard(1).Stats()};
  EXPECT_EQ(agg.requests, per_shard[0].requests + per_shard[1].requests);
  EXPECT_EQ(agg.requests, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(agg.documents, per_shard[0].documents + per_shard[1].documents);
  EXPECT_EQ(agg.answer_cache.hits,
            per_shard[0].answer_cache.hits + per_shard[1].answer_cache.hits);
  EXPECT_GT(agg.answer_cache.hits, 0);
  EXPECT_EQ(agg.plan_cache.misses,
            per_shard[0].plan_cache.misses + per_shard[1].plan_cache.misses);
  // The merged latency histogram counts every request exactly once.
  EXPECT_EQ(static_cast<int64_t>(agg.latency.count), agg.requests);

  // Aggregated JSON parses and the shards[] breakdown reconciles.
  const std::string json = service.ExportStats(StatsFormat::kJson);
  Result<obs::json::Value> parsed = obs::json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::json::Value* shards = parsed->Find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_TRUE(shards->is_array());
  ASSERT_EQ(shards->items().size(), 2u);
  double requests_sum = 0;
  for (const auto& shard_doc : shards->items()) {
    const obs::json::Value* count = shard_doc.FindPath("service.requests");
    ASSERT_NE(count, nullptr);
    requests_sum += count->AsNumber();
  }
  const obs::json::Value* total = parsed->FindPath("service.requests");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(requests_sum, total->AsNumber());
  const obs::json::Value* shard_count = parsed->FindPath("sharding.shards");
  ASSERT_NE(shard_count, nullptr);
  EXPECT_EQ(shard_count->AsNumber(), 2.0);
  // The single-service exporter is unchanged: no sharding section.
  QueryService solo;
  Result<obs::json::Value> solo_doc =
      obs::json::Parse(solo.ExportStats(StatsFormat::kJson));
  ASSERT_TRUE(solo_doc.ok());
  EXPECT_EQ(solo_doc->Find("sharding"), nullptr);
  EXPECT_EQ(solo_doc->Find("shards"), nullptr);
}

/// Expects every numeric leaf of the router document under `node` to equal
/// the sum of the same leaf over `shards`. A histogram summary contributes
/// only its count: percentiles, max and mean do not add up.
void ExpectLeavesSumOverShards(const obs::json::Value& node,
                               const std::string& path,
                               const std::vector<obs::json::Value>& shards,
                               int* checked) {
  if (node.is_number()) {
    double sum = 0;
    for (const obs::json::Value& shard : shards) {
      const obs::json::Value* leaf = shard.FindPath(path);
      ASSERT_NE(leaf, nullptr) << path;
      sum += leaf->AsNumber();
    }
    EXPECT_EQ(node.AsNumber(), sum) << path;
    ++*checked;
    return;
  }
  if (!node.is_object()) return;  // bools are settings, arrays are lists
  const bool summary = node.Find("p50") != nullptr;
  for (const auto& [key, member] : node.members()) {
    if (summary && key != "count") continue;
    const std::string child = path.empty() ? key : path + "." + key;
    if (child == "sharding" || child == "shards" ||
        child == "service.slow_query_threshold_ms") {
      continue;
    }
    ExpectLeavesSumOverShards(member, child, shards, checked);
  }
}

TEST(ShardedServiceTest, EveryRouterCountIsTheSumOverShards) {
  const std::string dir = ::testing::TempDir() + "gkx_shard_sums_" +
                          std::to_string(::getpid());
  for (const bool durable : {false, true}) {
    std::filesystem::remove_all(dir);
    ShardedQueryService::Options options;
    options.shards = 2;
    options.shard.plan_cache.capacity = 4;  // some evictions
    options.shard.obs.slow_query_ms = 0.0;  // every request is "slow"
    if (durable) {
      options.wal_dir = dir;
      options.shard.wal.fsync = false;
    }
    ShardedQueryService service(options);
    const int kDocs = 8;
    for (int k = 0; k < kDocs; ++k) {
      GKX_CHECK(service.RegisterXml(DocKey(k), DocXml(k)).ok());
    }
    auto ignore = [](const mview::SubscriptionEvent&) {};
    ASSERT_TRUE(service.Subscribe("doc*", "//*", ignore).ok());
    ASSERT_TRUE(service.Subscribe(DocKey(1), "//a1", ignore).ok());
    service.FlushSubscriptions();

    std::vector<ShardedQueryService::Request> requests;
    for (int k = 0; k < kDocs; ++k) {
      const std::string t = std::to_string(k);
      requests.push_back({DocKey(k), "//a" + t});
      requests.push_back({DocKey(k), "count(//a" + t + ")"});
      requests.push_back({DocKey(k), "//b" + t + "[not(c" + t + ")]"});
      requests.push_back({DocKey(k), "/d" + t + "/b" + t + "/a" + t +
                                         "[position() = 1]"});
    }
    requests.push_back({"missing", "//a0"});
    requests.push_back({DocKey(0), "//"});
    service.SubmitBatch(requests);
    for (int k = 0; k < kDocs; k += 3) {
      xml::SubtreeEdit edit;
      edit.kind = xml::SubtreeEdit::Kind::kSetText;
      edit.target = 2;
      edit.text = "churned";
      GKX_CHECK(service.UpdateDocument(DocKey(k), edit).ok());
    }
    EXPECT_TRUE(service.RemoveDocument(DocKey(5)));
    service.SubmitBatch(requests);
    service.FlushSubscriptions();

    Result<obs::json::Value> parsed =
        obs::json::Parse(service.ExportStats(StatsFormat::kJson));
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    const obs::json::Value* shards = parsed->Find("shards");
    ASSERT_NE(shards, nullptr);
    ASSERT_EQ(shards->items().size(), 2u);
    int checked = 0;
    ExpectLeavesSumOverShards(*parsed, "", shards->items(), &checked);
    // The sections a router always exports, plus the wal.* family.
    EXPECT_GE(checked, durable ? 52 : 45) << "durable=" << durable;
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedServiceTest, ExportWhileServingReadsLiveCounters) {
  // One thread exports the way a live kStats frame does while others batch,
  // update and subscribe: the pull gauges read the components' counters
  // from the exporting thread (a TSan target).
  ShardedQueryService::Options options;
  options.shards = 2;
  ShardedQueryService service(options);
  const int kDocs = 6;
  for (int k = 0; k < kDocs; ++k) {
    GKX_CHECK(service.RegisterXml(DocKey(k), DocXml(k)).ok());
  }
  std::atomic<bool> serving{true};
  std::atomic<int> exports{0};
  std::thread exporter([&] {
    do {
      Result<obs::json::Value> parsed =
          obs::json::Parse(service.ExportStats(StatsFormat::kJson));
      EXPECT_TRUE(parsed.ok());
      const ServiceStats stats = service.Stats();
      EXPECT_LE(stats.failures, stats.requests);
      exports.fetch_add(1);
    } while (serving.load());
  });
  while (exports.load() == 0) std::this_thread::yield();

  const int kRounds = 40;
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&service] {
      std::vector<ShardedQueryService::Request> batch;
      for (int k = 0; k < kDocs; ++k) {
        batch.push_back({DocKey(k), "count(//a" + std::to_string(k) + ")"});
      }
      for (int r = 0; r < kRounds; ++r) service.SubmitBatch(batch);
    });
  }
  workers.emplace_back([&service] {
    for (int r = 0; r < kRounds; ++r) {
      xml::SubtreeEdit edit;
      edit.kind = xml::SubtreeEdit::Kind::kSetText;
      edit.target = 2;
      edit.text = "round" + std::to_string(r);
      GKX_CHECK(service.UpdateDocument(DocKey(r % kDocs), edit).ok());
    }
  });
  workers.emplace_back([&service] {
    for (int r = 0; r < kRounds; ++r) {
      auto sub = service.Subscribe(r % 2 == 0 ? "doc*" : DocKey(r % kDocs),
                                   "//a" + std::to_string(r % kDocs),
                                   [](const mview::SubscriptionEvent&) {});
      ASSERT_TRUE(sub.ok());
      EXPECT_TRUE(service.Unsubscribe(*sub));
    }
  });
  for (std::thread& worker : workers) worker.join();
  serving.store(false);
  exporter.join();
  service.FlushSubscriptions();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, 2 * kRounds * kDocs);
  EXPECT_EQ(stats.batches, 2 * kRounds * 2);  // one sub-batch per shard
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.latency.count, stats.requests);
  EXPECT_EQ(stats.subscriptions.active, 0);
}

// ---------------------------------------------------------- subscriptions

TEST(ShardedServiceTest, PrefixSubscriptionSpansShardsUnderOneId) {
  ShardedQueryService::Options options;
  options.shards = 2;
  ShardedQueryService service(options);
  GKX_CHECK(service.RegisterXml("doc0", DocXml(0)).ok());  // shard 1
  GKX_CHECK(service.RegisterXml("doc1", DocXml(1)).ok());  // shard 0

  std::mutex mu;
  std::vector<mview::SubscriptionEvent> events;
  // The corpus-wide selector must fan in from both shards. "//*" matches
  // both documents' nodes.
  auto sub = service.Subscribe("doc*", "//*",
                               [&](const mview::SubscriptionEvent& event) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 events.push_back(event);
                               });
  ASSERT_TRUE(sub.ok()) << sub.status().message();
  service.FlushSubscriptions();

  std::set<std::string> initial_docs;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& event : events) {
      EXPECT_EQ(event.subscription, *sub);
      initial_docs.insert(event.doc_key);
    }
  }
  EXPECT_EQ(initial_docs, (std::set<std::string>{"doc0", "doc1"}));

  // Churn on each shard reaches the same merged stream.
  for (const char* key : {"doc0", "doc1"}) {
    xml::SubtreeEdit edit;
    edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
    edit.target = 0;
    edit.position = 0;
    auto subtree = xml::ParseDocument("<znew>v</znew>");
    GKX_CHECK(subtree.ok());
    edit.subtree = std::move(*subtree);
    GKX_CHECK(service.UpdateDocument(key, edit).ok());
  }
  service.FlushSubscriptions();
  std::set<std::string> churned_docs;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (size_t i = initial_docs.size(); i < events.size(); ++i) {
      churned_docs.insert(events[i].doc_key);
    }
  }
  EXPECT_EQ(churned_docs, (std::set<std::string>{"doc0", "doc1"}));

  EXPECT_TRUE(service.Unsubscribe(*sub));
  EXPECT_FALSE(service.Unsubscribe(*sub));
  const size_t settled = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return events.size();
  }();
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kSetText;
  edit.target = 1;
  edit.text = "after-unsub";
  GKX_CHECK(service.UpdateDocument("doc0", edit).ok());
  service.FlushSubscriptions();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(events.size(), settled);
}

}  // namespace
}  // namespace gkx::service
