// gkx::service — the serving layer.
//   * DocumentStore: registration, replacement, removal, lazy index.
//   * PlanCache: raw hits, canonical (spelling-equivalence) hits, eviction.
//   * QueryService: answers byte-identical to sequential Engine::Run over a
//     mixed workload (PF + Core + full-XPath, several documents), the
//     indexed PF fast path differential-tested against pf-frontier, and a
//     concurrent Submit stress test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "eval/engine.hpp"
#include "eval/pf_evaluator.hpp"
#include "obs/json.hpp"
#include "service/indexed_path.hpp"
#include "service/query_service.hpp"
#include "tests/serving_threads.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/snapshot.hpp"
#include "xpath/parser.hpp"

namespace gkx::service {
namespace {

const char kDocA[] = "<r><a><b/><b/></a><a/><c><b/></c></r>";
const char kDocB[] = "<r><x><a/><a><b/></a></x><c/><c><a/></c></r>";
const char kDocC[] = "<list><item n='1'/><item n='2'/><item n='3'/></list>";

// ------------------------------------------------------------- DocumentStore

TEST(DocumentStoreTest, PutGetRemove) {
  DocumentStore store;
  ASSERT_TRUE(store.PutXml("a", kDocA).ok());
  ASSERT_TRUE(store.PutXml("b", kDocB).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Keys(), (std::vector<std::string>{"a", "b"}));

  auto stored = store.Get("a");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->doc().size(), 7);
  EXPECT_EQ(store.Get("missing"), nullptr);

  EXPECT_TRUE(store.Remove("a"));
  EXPECT_FALSE(store.Remove("a"));
  // The shared_ptr we hold outlives removal.
  EXPECT_EQ(stored->doc().size(), 7);
}

TEST(DocumentStoreTest, RejectsBadInput) {
  DocumentStore store;
  EXPECT_FALSE(store.PutXml("bad", "<r><unclosed>").ok());
  EXPECT_EQ(store.size(), 0u);
}

TEST(DocumentStoreTest, IndexIsLazyAndCached) {
  DocumentStore store;
  ASSERT_TRUE(store.PutXml("a", kDocA).ok());
  auto stored = store.Get("a");
  EXPECT_FALSE(stored->index_built());
  const xml::DocumentIndex& index = stored->index();
  EXPECT_TRUE(stored->index_built());
  EXPECT_EQ(&stored->index(), &index);  // same instance, built once
  EXPECT_EQ(index.NodesWithName("b").size(), 3u);
}

TEST(DocumentStoreTest, UpdateAppliesSubtreePatchAndReportsDelta) {
  DocumentStore store;
  std::vector<std::string> events;
  std::vector<std::vector<std::string>> changed_sets;
  std::vector<bool> had_delta;
  store.SetUpdateListener([&](const CorpusUpdate& update) {
    events.push_back(update.key);
    changed_sets.push_back(update.changed_names);
    had_delta.push_back(update.delta != nullptr);
  });
  ASSERT_TRUE(store.PutXml("a", kDocA).ok());
  const int64_t first_revision = store.Get("a")->revision();

  // Replace the <c><b/></c> subtree (nodes 5..6) with <d><e/><e/></d>.
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kReplaceSubtree;
  edit.target = 5;
  edit.subtree = *xml::ParseDocument("<d><e/><e/></d>");
  ASSERT_TRUE(store.Update("a", edit).ok());

  auto stored = store.Get("a");
  EXPECT_EQ(stored->doc().size(), 8);
  EXPECT_GT(stored->revision(), first_revision);
  EXPECT_EQ(stored->doc().TagName(5), "d");

  // The listener saw install (no names) then the delta-local update.
  ASSERT_EQ(events, (std::vector<std::string>{"a", "a"}));
  EXPECT_TRUE(changed_sets[0].empty());
  EXPECT_FALSE(had_delta[0]);
  EXPECT_TRUE(had_delta[1]);
  EXPECT_EQ(changed_sets[1], (std::vector<std::string>{"b", "c", "d", "e"}));

  // Cached name sets: the new revision's pool keeps dead entries as a
  // superset, but stays sound — and failures are visible.
  for (const char* name : {"a", "b", "d", "e", "r"}) {
    EXPECT_TRUE(std::binary_search(stored->NameSet().begin(),
                                   stored->NameSet().end(), name))
        << name;
  }

  // Invalid edits fail cleanly and mutate nothing.
  edit.target = 99;
  EXPECT_FALSE(store.Update("a", edit).ok());
  EXPECT_FALSE(store.Update("missing", edit).ok());
  EXPECT_EQ(store.Get("a"), stored);
}

TEST(DocumentStoreTest, UpdateSplicesIndexInsteadOfRebuilding) {
  DocumentStore store;
  ASSERT_TRUE(store.PutXml("a", kDocA).ok());
  auto before = store.Get("a");
  before->index();  // the old revision was queried
  ASSERT_TRUE(before->index_built());

  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
  edit.target = 0;
  edit.position = 0;
  edit.subtree = *xml::ParseDocument("<b/>");
  ASSERT_TRUE(store.Update("a", edit).ok());

  auto after = store.Get("a");
  // The spliced index was adopted at Update time — no lazy rebuild left.
  EXPECT_TRUE(after->index_built());
  EXPECT_EQ(after->index().NodesWithName("b").size(), 4u);
  // ... and it matches a from-scratch index, posting for posting.
  xml::DocumentIndex fresh(after->doc());
  for (const std::string& name : fresh.PresentNames()) {
    EXPECT_EQ(after->index().NodesWithName(name), fresh.NodesWithName(name))
        << name;
  }
  EXPECT_EQ(after->NameSet(), fresh.PresentNames());

  // An unindexed base stays lazy: no index is built just to patch.
  DocumentStore lazy_store;
  ASSERT_TRUE(lazy_store.PutXml("a", kDocA).ok());
  ASSERT_TRUE(lazy_store.Update("a", edit).ok());
  EXPECT_FALSE(lazy_store.Get("a")->index_built());
}

TEST(DocumentStoreTest, PutXmlStreamedAdoptsParseTimeIndex) {
  DocumentStore store;
  ASSERT_TRUE(store.PutXmlStreamed("a", kDocA).ok());
  auto stored = store.Get("a");
  ASSERT_NE(stored, nullptr);
  // The index arrived with the parse — no lazy build pending.
  EXPECT_TRUE(stored->index_built());
  EXPECT_EQ(stored->index().NodesWithName("b").size(), 3u);
  // Document and postings match the DOM path exactly.
  DocumentStore dom_store;
  ASSERT_TRUE(dom_store.PutXml("a", kDocA).ok());
  auto dom = dom_store.Get("a");
  EXPECT_TRUE(stored->doc().StructurallyEquals(dom->doc()));
  xml::DocumentIndex fresh(stored->doc());
  for (const std::string& name : fresh.PresentNames()) {
    EXPECT_EQ(stored->index().NodesWithName(name), fresh.NodesWithName(name))
        << name;
  }
  EXPECT_EQ(stored->NameSet(), fresh.PresentNames());
  // Streamed parse errors surface like DOM parse errors.
  EXPECT_FALSE(store.PutXmlStreamed("bad", "<r><unclosed>").ok());
}

TEST(DocumentStoreTest, PutSnapshotServesFromMapping) {
  const std::string path = ::testing::TempDir() + "/store_snapshot.gkx";
  {
    auto doc = xml::ParseDocument(kDocA);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(xml::SaveSnapshot(*doc, path).ok());
  }
  DocumentStore store;
  ASSERT_TRUE(store.PutSnapshot("a", path).ok());
  auto stored = store.Get("a");
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->doc().mapped());
  EXPECT_EQ(stored->doc().size(), 7);
  EXPECT_EQ(stored->index().NodesWithName("b").size(), 3u);
  // Mapped documents still take subtree updates: ApplyEdit materializes.
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kRemoveSubtree;
  edit.target = 5;
  ASSERT_TRUE(store.Update("a", edit).ok());
  auto after = store.Get("a");
  EXPECT_FALSE(after->doc().mapped());
  EXPECT_EQ(after->doc().size(), 5);
  // Missing files fail cleanly.
  EXPECT_FALSE(store.PutSnapshot("b", path + ".missing").ok());
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- PlanCache

TEST(PlanCacheTest, RepeatLookupsHitWithoutReparsing) {
  PlanCache cache;
  auto first = cache.GetOrCompile("/descendant::a[child::b]");
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompile("/descendant::a[child::b]");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // literally the same plan

  PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ((*first)->route_label, "core-linear");
}

TEST(PlanCacheTest, EquivalentSpellingsShareOnePlan) {
  PlanCache cache;
  // "//b" is sugar for "/descendant-or-self::node()/child::b"; Optimize
  // fuses both to "/descendant::b", so all three share one canonical entry.
  auto sugar = cache.GetOrCompile("//b");
  auto expanded = cache.GetOrCompile("/descendant-or-self::node()/child::b");
  ASSERT_TRUE(sugar.ok());
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(sugar->get(), expanded->get());

  PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.canonical_hits, 1);

  // Second round of either spelling is now a raw hit.
  auto again = cache.GetOrCompile("/descendant-or-self::node()/child::b");
  EXPECT_EQ(cache.counters().hits, 1);
  ASSERT_TRUE(again.ok());
}

TEST(PlanCacheTest, ParseFailuresAreReportedNotCached) {
  PlanCache cache;
  EXPECT_FALSE(cache.GetOrCompile("child::").ok());
  EXPECT_FALSE(cache.GetOrCompile("child::").ok());
  PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.parse_failures, 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, LruEviction) {
  PlanCache::Options options;
  options.capacity = 4;
  options.shards = 1;  // single shard makes eviction order deterministic
  PlanCache cache(options);

  // Distinct single-step queries; each creates exactly one entry (their
  // canonical form equals the raw text).
  ASSERT_TRUE(cache.GetOrCompile("child::t0").ok());
  ASSERT_TRUE(cache.GetOrCompile("child::t1").ok());
  ASSERT_TRUE(cache.GetOrCompile("child::t2").ok());
  ASSERT_TRUE(cache.GetOrCompile("child::t3").ok());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.counters().evictions, 0);

  // Touch t0 so t1 is the LRU victim.
  ASSERT_TRUE(cache.GetOrCompile("child::t0").ok());
  ASSERT_TRUE(cache.GetOrCompile("child::t4").ok());
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_NE(cache.Peek("child::t0"), nullptr);
  EXPECT_EQ(cache.Peek("child::t1"), nullptr);  // evicted
  EXPECT_NE(cache.Peek("child::t4"), nullptr);
}

// -------------------------------------------------------------- QueryService

// QueryService owns mutexes and is immovable; register into it in place.
void RegisterCorpus(QueryService& service) {
  GKX_CHECK(service.RegisterXml("a", kDocA).ok());
  GKX_CHECK(service.RegisterXml("b", kDocB).ok());
  GKX_CHECK(service.RegisterXml("c", kDocC).ok());
}

// A mixed workload: PF (indexed and non-indexed shapes), positive Core,
// Core with negation, and full-XPath scalar/positional queries.
const char* kMixedQueries[] = {
    "/descendant::a/child::b",                  // PF, indexed
    "//b",                                      // PF, indexed (fused //)
    "child::*/child::a",                        // PF, indexed wildcard
    "/descendant::b/parent::a",                 // PF, reverse axis: fallback
    "/descendant::a[child::b]",                 // positive Core
    "/descendant::c[not(child::b)]",            // Core with not()
    "/descendant::a[position() = 2]",           // pWF positional
    "count(/descendant::b) * 10",               // full XPath scalar
    "string(/child::*/child::item)",            // full XPath string
    "/descendant::item[2] | /descendant::c",    // union, positional
};

TEST(QueryServiceTest, AnswersMatchSequentialEngineRun) {
  QueryService service;
  RegisterCorpus(service);
  eval::Engine reference;

  for (const std::string key : {"a", "b", "c"}) {
    auto stored = service.documents().Get(key);
    ASSERT_NE(stored, nullptr);
    for (const char* query : kMixedQueries) {
      auto expected = reference.Run(stored->doc(), query);
      auto got = service.Submit(key, query);
      ASSERT_TRUE(expected.ok()) << query;
      ASSERT_TRUE(got.ok()) << query;
      // Byte-identical answers: exact value equality, no coercions.
      EXPECT_TRUE(got->value.Equals(expected->value))
          << key << " " << query << ": " << got->value.DebugString() << " vs "
          << expected->value.DebugString();
      EXPECT_EQ(got->fragment.smallest, expected->fragment.smallest) << query;
      // Dispatch label matches except where the index answered a PF query.
      if (got->evaluator != "pf-indexed") {
        EXPECT_EQ(got->evaluator, expected->evaluator) << query;
      } else {
        EXPECT_EQ(expected->evaluator, "pf-frontier") << query;
      }
    }
  }
}

TEST(QueryServiceTest, BatchAgreesWithSequentialSubmits) {
  QueryService service;
  RegisterCorpus(service);

  std::vector<QueryService::Request> requests;
  for (const std::string key : {"a", "b", "c"}) {
    for (const char* query : kMixedQueries) {
      requests.push_back({key, query});
    }
  }
  // Repeat the workload to exercise the warm cache inside one batch.
  const size_t unique = requests.size();
  for (size_t i = 0; i < unique; ++i) requests.push_back(requests[i]);

  auto batch = service.SubmitBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());

  QueryService sequential;
  RegisterCorpus(sequential);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto expected =
        sequential.Submit(requests[i].doc_key, requests[i].query);
    ASSERT_TRUE(expected.ok()) << requests[i].query;
    ASSERT_TRUE(batch[i].ok()) << requests[i].query;
    EXPECT_TRUE(batch[i]->value.Equals(expected->value)) << requests[i].query;
    EXPECT_EQ(batch[i]->evaluator, expected->evaluator) << requests[i].query;
  }

  // The repeated half of the batch hit the plan cache. (≥ half, not all:
  // concurrent workers may compile the same text simultaneously, and both
  // count as misses — the cache converges, the counters record the race.)
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(requests.size()));
  EXPECT_GE(stats.plan_cache.hits, static_cast<int64_t>(unique) / 2);
  EXPECT_EQ(stats.failures, 0);
}

TEST(QueryServiceTest, RepeatedWorkloadHitRateAboveNinetyPercent) {
  QueryService service;
  RegisterCorpus(service);
  // 10 unique queries, 30 rounds: 300 lookups, ≤ 10 misses.
  std::vector<QueryService::Request> requests;
  for (int round = 0; round < 30; ++round) {
    for (const char* query : kMixedQueries) {
      requests.push_back({"a", query});
    }
  }
  auto responses = service.SubmitBatch(requests);
  for (const auto& response : responses) ASSERT_TRUE(response.ok());
  EXPECT_GE(service.Stats().plan_cache.HitRate(), 0.9);
}

TEST(QueryServiceTest, ErrorsAreIsolatedPerRequest) {
  QueryService service;
  RegisterCorpus(service);
  auto batch = service.SubmitBatch({
      {"a", "/descendant::b"},
      {"missing", "/descendant::b"},   // unknown document
      {"a", "child::"},                // parse error
      {"b", "/descendant::b"},
  });
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(batch[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[3].ok());
  EXPECT_EQ(service.Stats().failures, 2);
}

TEST(QueryServiceTest, IndexedFastPathDifferentialOnRandomDocuments) {
  // The indexed PF path must agree with pf-frontier on random documents ×
  // random PF-shaped queries (including ones it declines — then it must
  // decline cleanly, not answer wrongly).
  Rng rng(1234);
  const char* queries[] = {
      "/descendant::t0/child::t1",
      "//t2",
      "//t0//t1",
      "/child::*/descendant-or-self::t1",
      "/descendant::t1 | //t3/child::t0",
      "self::t0/descendant::t2",
      "child::t1/child::t2/child::t3",
  };
  for (int trial = 0; trial < 8; ++trial) {
    xml::RandomDocumentOptions options;
    options.node_count = 300;
    options.tag_alphabet = 4;
    options.max_extra_labels = 1;
    xml::Document doc = xml::RandomDocument(&rng, options);
    xml::DocumentIndex index(doc);
    eval::PfEvaluator pf;
    for (const char* text : queries) {
      xpath::Query query = xpath::MustParse(text);
      auto indexed = TryIndexedPath(index, query);
      ASSERT_TRUE(indexed.has_value()) << text;
      auto expected = pf.EvaluateNodeSet(doc, query);
      ASSERT_TRUE(expected.ok()) << text;
      EXPECT_EQ(*indexed, *expected) << text << " trial " << trial;
    }
  }
}

TEST(QueryServiceTest, IndexedFastPathDeclinesUnsupportedShapes) {
  xml::Document doc = xml::ChainDocument(10);
  xml::DocumentIndex index(doc);
  EXPECT_FALSE(TryIndexedPath(index, xpath::MustParse("/descendant::t1/parent::t0")));
  EXPECT_FALSE(TryIndexedPath(index, xpath::MustParse("//t1/following-sibling::t2")));
  EXPECT_FALSE(TryIndexedPath(index, xpath::MustParse("count(//t1)")));
  EXPECT_FALSE(TryIndexedPath(index, xpath::MustParse("/descendant::t1[child::t2]")));
}

TEST(QueryServiceTest, ConcurrentSubmitStress) {
  QueryService service;
  RegisterCorpus(service);

  // Precompute expected answers sequentially.
  eval::Engine reference;
  std::vector<std::pair<QueryService::Request, std::string>> expected;
  for (const std::string key : {"a", "b", "c"}) {
    auto stored = service.documents().Get(key);
    for (const char* query : kMixedQueries) {
      auto answer = reference.Run(stored->doc(), query);
      GKX_CHECK(answer.ok());
      expected.push_back({{key, query}, answer->value.DebugString()});
    }
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &expected, &mismatches, &errors, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto& [request, want] =
            expected[static_cast<size_t>(t * 7 + i) % expected.size()];
        auto got = service.Submit(request.doc_key, request.query);
        if (!got.ok()) {
          errors.fetch_add(1);
        } else if (got->value.DebugString() != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_GE(stats.plan_cache.HitRate(), 0.9);
  EXPECT_EQ(stats.latency.count, kThreads * kPerThread);
}

// ---------------------------------------------------------- where batches run

// Every (document, query) pair of the mixed corpus, cycled to `n` requests.
std::vector<QueryService::Request> CycledPairs(size_t n) {
  std::vector<QueryService::Request> requests;
  while (requests.size() < n) {
    for (const std::string key : {"a", "b", "c"}) {
      for (const char* query : kMixedQueries) {
        if (requests.size() < n) requests.push_back({key, query});
      }
    }
  }
  return requests;
}

// The mixed corpus on a service with its own width-2 pool, whose answer
// tap records which threads serve.
struct TappedService {
  explicit TappedService(int batch_workers = 0)
      : service([&] {
          QueryService::Options options;
          options.pool = &pool;
          options.batch_workers = batch_workers;
          options.answer_tap = serving.Tap();
          return options;
        }()) {
    RegisterCorpus(service);
  }

  ThreadPool pool{2};
  ServingThreads serving;
  QueryService service;
};

TEST(QueryServiceTest, WarmBatchIsServedOnTheCallingThread) {
  // Waking a pool thread costs more than the hits it would serve: a batch
  // the answer cache answers entirely never leaves the caller.
  TappedService tapped;
  const std::vector<QueryService::Request> batch = CycledPairs(64);
  for (const auto& answer : tapped.service.SubmitBatch(batch)) {
    ASSERT_TRUE(answer.ok());
  }

  const int64_t hits = tapped.service.answer_cache().counters().hits;
  tapped.serving.Reset();
  tapped.serving.Dwell(std::chrono::microseconds(100));
  for (const auto& answer : tapped.service.SubmitBatch(batch)) {
    ASSERT_TRUE(answer.ok());
  }
  EXPECT_EQ(tapped.service.answer_cache().counters().hits - hits, 64);
  EXPECT_EQ(tapped.serving.calls(), 64);
  EXPECT_EQ(tapped.serving.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(QueryServiceTest, ColdBatchStillForksOntoThePool) {
  // Every request misses, so after the first the batch must fork: the
  // latch holds served requests until a second thread serves one, and
  // times out if none ever does.
  TappedService tapped;
  tapped.serving.ArmLatch(std::chrono::seconds(10));
  for (const auto& answer : tapped.service.SubmitBatch(CycledPairs(30))) {
    ASSERT_TRUE(answer.ok());
  }
  EXPECT_EQ(tapped.service.answer_cache().counters().misses, 30);
  EXPECT_FALSE(tapped.serving.timed_out());
  EXPECT_GE(tapped.serving.threads().size(), 2u);
}

TEST(QueryServiceTest, OneBatchWorkerKeepsColdBatchesOnTheCaller) {
  // batch_workers = 1 never forks, misses or not: batches stay serial in
  // request order (the stats-document goldens depend on it).
  TappedService tapped(/*batch_workers=*/1);
  for (const auto& answer : tapped.service.SubmitBatch(CycledPairs(30))) {
    ASSERT_TRUE(answer.ok());
  }
  EXPECT_EQ(tapped.service.answer_cache().counters().misses, 30);
  EXPECT_EQ(tapped.serving.threads(),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(QueryServiceTest, StatsTrackEvaluatorsAndDocuments) {
  QueryService service;
  RegisterCorpus(service);
  ASSERT_TRUE(service.Submit("a", "/descendant::a/child::b").ok());   // indexed
  ASSERT_TRUE(service.Submit("a", "/descendant::a[child::b]").ok());  // core
  ASSERT_TRUE(service.Submit("a", "count(/descendant::b)").ok());     // cvt
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.documents, 3u);
  EXPECT_EQ(stats.segment_route_counts["pf-indexed"], 1);
  EXPECT_EQ(stats.segment_route_counts["core-linear"], 1);
  EXPECT_EQ(stats.segment_route_counts["cvt"], 1);
  EXPECT_EQ(stats.latency.count, 3);
  EXPECT_GE(stats.latency.max, 0.0);
}

TEST(QueryServiceTest, UniformAndStagedCvtCountUnderOneRoute) {
  QueryService service;
  RegisterCorpus(service);
  // A scalar root runs whole on cvt; a hybrid plan's cvt segment runs on
  // the same engine. Both answer and count under the one route name "cvt".
  auto uniform = service.Submit("a", "count(/descendant::b)");
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform->evaluator, "cvt");
  auto hybrid = service.Submit("a", "/descendant::a/child::b[position() = 1]");
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid->evaluator, "pf-frontier+cvt");

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.segment_route_counts.at("cvt"), 2);
  EXPECT_EQ(stats.segment_route_counts.at("pf-frontier"), 1);
  auto document = obs::json::Parse(service.ExportStats(StatsFormat::kJson));
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->FindPath("routes.cvt.count")->AsNumber(), 2.0);
  // Exactly the four served routes, with no engine-label alias.
  std::vector<std::string> routes;
  for (const auto& [route, count] : stats.segment_route_counts) {
    routes.push_back(route);
  }
  EXPECT_EQ(routes, (std::vector<std::string>{"core-linear", "cvt",
                                              "pf-frontier", "pf-indexed"}));
}

TEST(QueryServiceTest, SegmentsAfterAnEmptyFrontierCountAsSkipped) {
  QueryService service;
  RegisterCorpus(service);
  // No element is named zz, so the frontier is empty after the first
  // segment and the two segments after it are skipped. They still count,
  // each under its route.
  auto answer = service.Submit(
      "a", "/descendant::zz/child::b[position() = 1]/descendant::c");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->evaluator, "pf-frontier+cvt+pf-frontier");
  EXPECT_TRUE(answer->value.nodes().empty());

  auto document = obs::json::Parse(service.ExportStats(StatsFormat::kJson));
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->FindPath("routes.pf-frontier.count")->AsNumber(), 2.0);
  EXPECT_EQ(document->FindPath("routes.cvt.count")->AsNumber(), 1.0);
  EXPECT_EQ(document->FindPath("exec.skipped_segments")->AsNumber(), 2.0);
  EXPECT_EQ(service.Stats().exec_skipped_segments, 2);
}

TEST(QueryServiceTest, PessimizedSpellingRunsCanonicalPlan) {
  QueryService service;
  RegisterCorpus(service);
  // Optimize drops [true()], so both spellings share the canonical plan
  // "/descendant::a" — and the pessimized one gets PF's cheap engine.
  auto pessimized = service.Submit("a", "/descendant::a[true()]");
  auto canonical = service.Submit("a", "/descendant::a");
  ASSERT_TRUE(pessimized.ok());
  ASSERT_TRUE(canonical.ok());
  EXPECT_TRUE(pessimized->value.Equals(canonical->value));
  EXPECT_EQ(pessimized->evaluator, canonical->evaluator);
  EXPECT_TRUE(pessimized->fragment.in_pf);

  PlanCache::Counters counters = service.plan_cache().counters();
  EXPECT_EQ(counters.misses, 1);  // one compile serves both spellings
  EXPECT_EQ(counters.hits, 1);    // the canonical text raw-hit the entry
}

}  // namespace
}  // namespace gkx::service
