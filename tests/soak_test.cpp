// gkx::testkit — the deterministic concurrent workload harness.
//   * Schedules are byte-stable: same (spec, seed) => identical corpus,
//     query pool, and operation list; different seeds differ.
//   * The flagship soak: >= 10k operations replayed over >= 4 threads
//     against a live service (the N=1 router) with zipfian traffic,
//     batches, and live AddDocument churn — zero divergences from the naive
//     single-threaded oracle, zero lost updates, and fully reconciled
//     service counters.
//   * Fault injection: perturbed answers (via QueryService's answer_tap
//     test hook, on one shard and behind a 2-shard router) and broken
//     invalidation are caught, and the failure message carries the
//     reproducing seed.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "testkit/oracle.hpp"
#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"
#include "xml/serializer.hpp"

namespace gkx::testkit {
namespace {

// Small pools keep the naive oracle fast; the op count carries the load.
WorkloadSpec SoakSpec(uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.operations = 10000;
  spec.documents = 4;
  spec.queries = 48;
  spec.min_document_nodes = 30;
  spec.max_document_nodes = 90;
  spec.query_options.max_path_steps = 3;
  spec.query_options.max_condition_depth = 2;
  spec.query_options.tag_zipf_s = 0.7;
  spec.document_options.tag_zipf_s = 0.7;
  spec.document_options.text_probability = 0.25;
  spec.churn_probability = 0.004;
  return spec;
}

TEST(WorkloadTest, CompileIsDeterministicInSeed) {
  auto a = CompileWorkload(SoakSpec(7));
  auto b = CompileWorkload(SoakSpec(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->queries, b->queries);
  ASSERT_EQ(a->operations.size(), b->operations.size());
  ASSERT_EQ(a->total_requests, b->total_requests);
  for (size_t i = 0; i < a->operations.size(); ++i) {
    EXPECT_EQ(a->operations[i].kind, b->operations[i].kind);
    EXPECT_EQ(a->operations[i].requests, b->operations[i].requests);
    EXPECT_EQ(a->operations[i].doc, b->operations[i].doc);
    EXPECT_EQ(a->operations[i].revision, b->operations[i].revision);
  }
  ASSERT_EQ(a->revisions.size(), b->revisions.size());
  for (size_t d = 0; d < a->revisions.size(); ++d) {
    ASSERT_EQ(a->revisions[d].size(), b->revisions[d].size());
    for (size_t r = 0; r < a->revisions[d].size(); ++r) {
      EXPECT_EQ(xml::SerializeDocument(a->revisions[d][r]),
                xml::SerializeDocument(b->revisions[d][r]));
    }
  }

  auto c = CompileWorkload(SoakSpec(8));
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->queries, c->queries);
}

TEST(WorkloadTest, MixesFragmentsBatchesAndChurn) {
  WorkloadSpec spec = SoakSpec(11);
  spec.churn_probability = 0.01;  // enough events to see both churn kinds
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());
  int submits = 0, batches = 0, replacements = 0, edits = 0;
  for (const Operation& op : schedule->operations) {
    switch (op.kind) {
      case Operation::Kind::kSubmit: ++submits; break;
      case Operation::Kind::kBatch: ++batches; break;
      case Operation::Kind::kAddDocument: ++replacements; break;
      case Operation::Kind::kEditDocument: ++edits; break;
    }
  }
  EXPECT_GT(submits, 0);
  EXPECT_GT(batches, 0);
  EXPECT_GT(replacements, 0);
  EXPECT_GT(edits, 0);  // default edit_probability splits churn both ways
  // Every churned revision exists in the corpus, and every edit op's
  // precomputed result is its revision (the compile already cross-checked
  // it against a from-scratch rebuild).
  for (const Operation& op : schedule->operations) {
    if (op.kind != Operation::Kind::kAddDocument &&
        op.kind != Operation::Kind::kEditDocument) {
      continue;
    }
    ASSERT_LT(static_cast<size_t>(op.revision),
              schedule->revisions[static_cast<size_t>(op.doc)].size());
    ASSERT_GE(op.revision, 1);
  }
}

TEST(WorkloadTest, ZipfPopularitySkewsTowardLowRanks) {
  auto schedule = CompileWorkload(SoakSpec(13));
  ASSERT_TRUE(schedule.ok());
  std::vector<int64_t> query_counts(schedule->queries.size(), 0);
  for (const Operation& op : schedule->operations) {
    for (const auto& [doc, query] : op.requests) {
      ++query_counts[static_cast<size_t>(query)];
    }
  }
  // Rank 0 must be requested far more often than the median rank.
  EXPECT_GT(query_counts[0], 4 * query_counts[query_counts.size() / 2]);
}

TEST(WorkloadTest, RejectsInconsistentSpecs) {
  WorkloadSpec spec = SoakSpec(1);
  spec.documents = 0;
  EXPECT_FALSE(CompileWorkload(spec).ok());
  spec = SoakSpec(1);
  spec.min_document_nodes = 10;
  spec.max_document_nodes = 5;
  EXPECT_FALSE(CompileWorkload(spec).ok());
  spec = SoakSpec(1);
  spec.mix = {{xpath::Fragment::kPF, 0.0}};
  EXPECT_FALSE(CompileWorkload(spec).ok());
  spec = SoakSpec(1);
  spec.document_zipf_s = -0.8;  // would silently invert popularity
  EXPECT_FALSE(CompileWorkload(spec).ok());
  spec = SoakSpec(1);
  spec.churn_probability = 1.5;
  EXPECT_FALSE(CompileWorkload(spec).ok());
  spec = SoakSpec(1);
  spec.edit_probability = -0.25;
  EXPECT_FALSE(CompileWorkload(spec).ok());
}

// The flagship: >= 10k operations over >= 4 threads, zero divergences.
TEST(SoakTest, TenThousandOpsFourThreadsAgreeWithOracle) {
  auto schedule = CompileWorkload(SoakSpec(42));
  ASSERT_TRUE(schedule.ok());
  ASSERT_GE(schedule->operations.size(), 10000u);

  SoakOptions options;
  options.threads = 4;
  options.service.plan_cache.capacity = 64;  // force evictions under load
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.operations, 10000);
  EXPECT_GE(report.requests, 10000);
  EXPECT_EQ(report.divergences, 0);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.lost_updates, 0);
  EXPECT_EQ(report.stats_violations, 0);
  // The zipfian workload keeps the plan cache hot even at capacity 64.
  EXPECT_GE(report.stats.plan_cache.HitRate(), 0.8);
  // Both fast paths saw traffic.
  EXPECT_GT(report.stats.segment_route_counts["pf-indexed"] +
                report.stats.segment_route_counts["pf-frontier"],
            0);
  EXPECT_GT(report.stats.segment_route_counts["core-linear"], 0);
}

// Churn + subscription mode: standing queries ride along with the replay,
// every delivered diff stream is re-applied and checked against the oracle
// (each state must be a real revision's answer, the final state the highest
// revision's), and the new mview counters must reconcile.
TEST(SoakTest, ChurnPlusSubscriptionSoakAgreesWithOracle) {
  WorkloadSpec spec = SoakSpec(77);
  spec.operations = 3000;
  spec.churn_probability = 0.02;  // plenty of subscription wake-ups
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  options.standing_queries = 6;
  options.service.plan_cache.capacity = 64;
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.subscriptions, 6);
  EXPECT_GT(report.subscription_events, 0);
  EXPECT_EQ(report.subscription_violations, 0);
  EXPECT_EQ(report.stats.subscriptions.fired, report.subscription_events);
  // The answer cache sat on the request path the whole time: its lookups
  // must account for every successful request, and churn must have
  // exercised the invalidation path.
  EXPECT_EQ(report.stats.answer_cache.Lookups(),
            report.stats.requests - report.stats.failures);
  EXPECT_GT(report.stats.answer_cache.hits, 0);
  EXPECT_GT(report.stats.answer_cache.invalidations +
                report.stats.answer_cache.retained,
            0);
}

// Delta churn + subscriptions: subtree edits replayed through the live
// delta pipeline (UpdateDocument), each patch differentially checked
// against its precomputed full-replacement-equivalent revision, all query
// answers checked against the oracle, diff streams re-applied and checked —
// and the SAME schedule must also pass with delta invalidation disabled
// (the whole-document baseline), proving the two invalidation modes are
// answer-equivalent and only differ in what they retain.
TEST(SoakTest, DeltaChurnSoakAgreesWithOracleInBothInvalidationModes) {
  WorkloadSpec spec = SoakSpec(101);
  spec.operations = 3000;
  spec.churn_probability = 0.02;
  spec.edit_probability = 0.7;  // mostly subtree patches, some replacements
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  int64_t delta_retained = 0;
  for (const bool delta_invalidation : {true, false}) {
    SoakOptions options;
    options.threads = 4;
    options.standing_queries = 4;
    options.service.plan_cache.capacity = 64;
    options.service.delta_invalidation = delta_invalidation;
    SoakReport report = RunSoak(*schedule, options);

    EXPECT_TRUE(report.ok()) << report.Summary();
    EXPECT_GT(report.patches, 0);
    EXPECT_EQ(report.patch_divergences, 0);
    EXPECT_EQ(report.divergences, 0);
    EXPECT_EQ(report.lost_updates, 0);
    EXPECT_EQ(report.subscription_violations, 0);
    if (delta_invalidation) {
      delta_retained = report.stats.answer_cache.retained;
    } else {
      // Region×name precision must retain at least as much as the
      // document×name baseline on the identical schedule.
      EXPECT_GE(delta_retained, report.stats.answer_cache.retained);
    }
  }
}

// A stale-answer fault injected via answer_tap — the tap serves a node-set
// with its tail node dropped, modelling an answer cache that survived an
// update it should not have — must be caught with the reproducing seed.
TEST(SoakTest, StaleAnswerFaultViaTapIsCaughtWithReproducingSeed) {
  WorkloadSpec spec = SoakSpec(131);
  spec.operations = 600;
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  options.standing_queries = 2;
  options.service.answer_tap = [](eval::Engine::Answer* answer) {
    if (answer->value.is_node_set() && answer->value.nodes().size() >= 2) {
      eval::NodeSet nodes = answer->value.nodes();
      nodes.pop_back();
      answer->value = eval::Value::Nodes(std::move(nodes));
    }
  };
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.divergences, 0);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=131"), std::string::npos)
      << report.failures[0];
}

// The same stale-answer fault behind a 2-shard router: the tap sits in the
// per-shard template, so both shards serve short node-sets through the
// router's batch loop, and the oracle must still flag them with the seed.
TEST(SoakTest, StaleAnswerFaultBehindTwoShardsIsCaughtWithReproducingSeed) {
  WorkloadSpec spec = SoakSpec(131);
  spec.operations = 600;
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  options.shards = 2;
  options.standing_queries = 2;
  options.service.answer_tap = [](eval::Engine::Answer* answer) {
    if (answer->value.is_node_set() && answer->value.nodes().size() >= 2) {
      eval::NodeSet nodes = answer->value.nodes();
      nodes.pop_back();
      answer->value = eval::Value::Nodes(std::move(nodes));
    }
  };
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.divergences, 0);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=131"), std::string::npos)
      << report.failures[0];
}

// The honest stale-serve defect: invalidation that ignores footprints
// retains every cached answer across every update, so after intersecting
// churn the service hands out answers from dead revisions. The soak's
// oracle must flag them (and embed the seed) — this is the failure mode the
// whole mview layer exists to prevent.
TEST(SoakTest, BrokenInvalidationServesStaleAnswersAndIsCaught) {
  WorkloadSpec spec = SoakSpec(59);
  spec.operations = 4000;
  spec.churn_probability = 0.05;  // heavy churn: stale entries get re-read
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  options.service.answer_cache.fault_ignore_footprints = true;
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_FALSE(report.ok()) << "stale serves went undetected";
  EXPECT_GT(report.divergences, 0);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=59"), std::string::npos)
      << report.failures[0];
}

// The delta fault tooth: invalidation that skips the region×name machinery
// (retaining every entry, un-remapped, across every subtree edit) serves
// truly stale answers under edit churn — the soak's oracle must flag them
// and embed the reproducing seed. This is the defect mode the delta
// pipeline introduces and therefore must be provably caught.
TEST(SoakTest, BrokenDeltaInvalidationServesStaleAnswersAndIsCaught) {
  WorkloadSpec spec = SoakSpec(67);
  spec.operations = 4000;
  spec.churn_probability = 0.05;  // heavy churn: stale entries get re-read
  spec.edit_probability = 1.0;    // every churn event is a subtree patch
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  options.service.answer_cache.fault_ignore_delta = true;
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_FALSE(report.ok()) << "stale serves went undetected";
  EXPECT_GT(report.divergences, 0);
  EXPECT_GT(report.patches, 0);
  EXPECT_EQ(report.patch_divergences, 0);  // the patches themselves applied
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=67"), std::string::npos)
      << report.failures[0];
}

// A semantically faulty engine must be caught, with the seed in the report.
TEST(SoakTest, InjectedAnswerFaultIsCaughtWithReproducingSeed) {
  WorkloadSpec spec = SoakSpec(97);
  spec.operations = 400;
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 4;
  // Perturb every non-empty node-set produced by the indexed fast path:
  // drop the first node. This models a subtly wrong posting-list merge.
  options.service.answer_tap = [](eval::Engine::Answer* answer) {
    if (answer->evaluator == "pf-indexed" && answer->value.is_node_set() &&
        !answer->value.nodes().empty()) {
      eval::NodeSet nodes = answer->value.nodes();
      nodes.erase(nodes.begin());
      answer->value = eval::Value::Nodes(std::move(nodes));
    }
  };
  SoakReport report = RunSoak(*schedule, options);

  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.divergences, 0);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("seed=97"), std::string::npos)
      << report.failures[0];
  EXPECT_NE(report.failures[0].find("divergence"), std::string::npos);
}

// Eviction observation: under a tiny cache the driver's on_evict-based
// reconciliation must hold, and a caller-provided hook is composed, not
// clobbered — both see exactly counters().evictions events.
TEST(SoakTest, EvictionObservationReconcilesUnderCacheChurn) {
  WorkloadSpec spec = SoakSpec(101);
  spec.operations = 300;
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());

  SoakOptions options;
  options.threads = 2;
  options.service.plan_cache.capacity = 8;  // guarantee evictions
  std::atomic<int64_t> caller_observed{0};
  options.service.plan_cache.on_evict = [&caller_observed](const std::string&) {
    caller_observed.fetch_add(1);
  };
  SoakReport report = RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.stats.plan_cache.evictions, 0)
      << "spec did not trigger evictions; tighten capacity";
  EXPECT_EQ(caller_observed.load(), report.stats.plan_cache.evictions);
}

// The oracle itself: digests are per-revision, and revision windows work.
TEST(OracleTest, TracksRevisionsIndependently) {
  WorkloadSpec spec = SoakSpec(55);
  spec.operations = 500;
  spec.churn_probability = 0.05;  // plenty of revisions
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok());
  Oracle oracle(*schedule);
  EXPECT_GT(oracle.evaluations(), 0);

  // Find a (doc, query) pair used in the schedule on a doc with >= 2
  // revisions and check the window logic against the per-revision digests.
  for (const Operation& op : schedule->operations) {
    for (const auto& [doc, query] : op.requests) {
      const auto& revisions = schedule->revisions[static_cast<size_t>(doc)];
      if (revisions.size() < 2) continue;
      const int32_t hi = static_cast<int32_t>(revisions.size()) - 1;
      const std::string& first = oracle.Expected(doc, 0, query);
      EXPECT_TRUE(oracle.MatchesAnyRevision(doc, 0, hi, query, first));
      EXPECT_FALSE(oracle.MatchesAnyRevision(doc, 0, hi, query,
                                             "node-set{-1}"));
      return;
    }
  }
  GTEST_SKIP() << "no churned document was queried for this seed";
}

}  // namespace
}  // namespace gkx::testkit
