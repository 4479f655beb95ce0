// PlanCache canonical-aliasing property test: for randomly generated
// queries, every spelling in the same Optimize()-equivalence class — the
// raw generated text, its canonical (optimized, unabbreviated) form, and a
// pessimized variant with a vacuous [true()] predicate — must share ONE
// compiled plan (one miss, everything else aliased) and produce answers
// identical to a fresh Engine::Run of the raw text on random documents.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "base/rng.hpp"
#include "eval/engine.hpp"
#include "service/plan_cache.hpp"
#include "xml/generator.hpp"
#include "xpath/ast.hpp"
#include "xpath/generator.hpp"
#include "xpath/optimize.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx::service {
namespace {

// Equivalent spellings of `query`: raw, canonical, and (for plain paths) a
// pessimized variant whose extra [true()] the optimizer must strip away.
std::vector<std::string> EquivalentSpellings(const xpath::Query& query) {
  std::vector<std::string> spellings;
  spellings.push_back(xpath::ToXPathString(query));
  spellings.push_back(xpath::CanonicalXPathString(query));
  if (query.root().kind() == xpath::Expr::Kind::kPath) {
    spellings.push_back(spellings.front() + "[true()]");
  }
  return spellings;
}

TEST(PlanCachePropertyTest, EquivalentSpellingsAliasToOnePlan) {
  Rng rng(2024);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 80;

  int trials_with_distinct_spellings = 0;
  for (int trial = 0; trial < 60; ++trial) {
    xpath::RandomQueryOptions query_options;
    // Cycle through fragments so aliasing is exercised on every engine.
    constexpr xpath::Fragment kFragments[] = {
        xpath::Fragment::kPF, xpath::Fragment::kPositiveCore,
        xpath::Fragment::kCore, xpath::Fragment::kPWF,
        xpath::Fragment::kFullXPath};
    query_options.fragment = kFragments[trial % 5];
    query_options.max_path_steps = 3;
    query_options.max_condition_depth = 2;
    xpath::Query query = xpath::RandomQuery(&rng, query_options);
    std::vector<std::string> spellings = EquivalentSpellings(query);

    // All spellings must parse (the pessimized one is built syntactically).
    bool all_parse = true;
    for (const std::string& spelling : spellings) {
      all_parse = all_parse && xpath::ParseQuery(spelling).ok();
    }
    ASSERT_TRUE(all_parse) << spellings.front();

    PlanCache cache;
    std::vector<std::shared_ptr<const eval::Engine::Plan>> plans;
    for (const std::string& spelling : spellings) {
      auto plan = cache.GetOrCompile(spelling);
      ASSERT_TRUE(plan.ok()) << spelling;
      plans.push_back(*plan);
    }

    // ONE plan serves the whole equivalence class: exactly one compile, and
    // every spelling returned literally the same object.
    PlanCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.misses, 1) << spellings.front();
    for (size_t i = 1; i < plans.size(); ++i) {
      EXPECT_EQ(plans[0].get(), plans[i].get())
          << spellings[0] << " vs " << spellings[i];
    }
    bool distinct = false;
    for (size_t i = 1; i < spellings.size(); ++i) {
      distinct = distinct || spellings[i] != spellings[0];
    }
    if (distinct) ++trials_with_distinct_spellings;

    // Identical answers: the shared canonical plan vs a fresh Engine::Run
    // of each raw spelling, on a random document.
    xml::Document doc = xml::RandomDocument(&rng, doc_options);
    eval::Engine engine;
    for (size_t i = 0; i < spellings.size(); ++i) {
      auto from_plan = engine.RunPlan(doc, *plans[i]);
      auto from_text = engine.Run(doc, spellings[i]);
      ASSERT_TRUE(from_plan.ok()) << spellings[i];
      ASSERT_TRUE(from_text.ok()) << spellings[i];
      EXPECT_TRUE(from_plan->value.Equals(from_text->value))
          << spellings[i] << ": " << from_plan->value.DebugString() << " vs "
          << from_text->value.DebugString();
    }
  }
  // The property is vacuous if canonicalization never changed a spelling.
  EXPECT_GT(trials_with_distinct_spellings, 20);
}

// Aliases count toward capacity but an alias hit refreshes the shared plan:
// inserting equivalence classes never duplicates compiled plans.
TEST(PlanCachePropertyTest, AliasEntriesShareUnderlyingPlanAfterEviction) {
  PlanCache::Options options;
  options.capacity = 64;
  options.shards = 1;
  int evictions_observed = 0;
  options.on_evict = [&evictions_observed](const std::string&) {
    ++evictions_observed;
  };
  PlanCache cache(options);

  Rng rng(7);
  xpath::RandomQueryOptions query_options;
  query_options.fragment = xpath::Fragment::kCore;
  std::vector<xpath::Query> queries;
  for (int i = 0; i < 200; ++i) {
    xpath::Query query = xpath::RandomQuery(&rng, query_options);
    for (const std::string& spelling : EquivalentSpellings(query)) {
      auto plan = cache.GetOrCompile(spelling);
      ASSERT_TRUE(plan.ok()) << spelling;
    }
    queries.push_back(std::move(query));
  }
  EXPECT_LE(cache.size(), 64u);
  EXPECT_EQ(static_cast<int64_t>(evictions_observed),
            cache.counters().evictions);
  EXPECT_GT(evictions_observed, 0);

  // The aliasing property survives eviction: re-resolving any equivalence
  // class — whose entries were mostly evicted above — still converges on a
  // single shared plan object per class, never duplicate compiles.
  for (size_t i = 0; i < queries.size(); i += 37) {
    std::vector<std::shared_ptr<const eval::Engine::Plan>> plans;
    for (const std::string& spelling : EquivalentSpellings(queries[i])) {
      auto plan = cache.GetOrCompile(spelling);
      ASSERT_TRUE(plan.ok()) << spelling;
      plans.push_back(*plan);
    }
    for (size_t p = 1; p < plans.size(); ++p) {
      EXPECT_EQ(plans[0].get(), plans[p].get());
    }
  }
}

// Concurrent compiles of DIFFERENT spellings of one equivalence class must
// still converge on a single Plan object: the loser of the canonical-insert
// race has to adopt the winner's resident plan before aliasing its raw
// text (regression: the raw alias used to keep the loser's private plan).
TEST(PlanCachePropertyTest, ConcurrentEquivalentSpellingsConvergeOnOnePlan) {
  const std::vector<std::string> spellings = {
      "//b", "/descendant-or-self::node()/child::b", "/descendant::b[true()]",
      "/descendant::b"};
  for (int round = 0; round < 20; ++round) {
    PlanCache cache;
    std::vector<std::shared_ptr<const eval::Engine::Plan>> returned(
        spellings.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < spellings.size(); ++i) {
      threads.emplace_back([&cache, &spellings, &returned, i] {
        auto plan = cache.GetOrCompile(spellings[i]);
        GKX_CHECK(plan.ok());
        returned[i] = *plan;
      });
    }
    for (auto& thread : threads) thread.join();

    // Whatever the interleaving, one plan serves the class — both the
    // returned handles and the now-resident entries agree.
    for (size_t i = 1; i < returned.size(); ++i) {
      EXPECT_EQ(returned[0].get(), returned[i].get())
          << spellings[i] << " round " << round;
    }
    // Every spelling is resident: each lookup is a raw-text hit.
    const int64_t hits = cache.counters().hits;
    for (const std::string& spelling : spellings) {
      auto resident = cache.GetOrCompile(spelling);
      ASSERT_TRUE(resident.ok());
      EXPECT_EQ(resident->get(), returned[0].get()) << spelling;
    }
    EXPECT_EQ(cache.counters().hits,
              hits + static_cast<int64_t>(spellings.size()));
  }
}

}  // namespace
}  // namespace gkx::service
