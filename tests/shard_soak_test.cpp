// testkit::RunSoak with shards >= 2 — cross-shard isolation under
// concurrent churn, routed batch reads and standing subscriptions (see
// src/testkit/soak_driver.hpp for every check the driver makes). The
// 2-shard cases are TSan CI targets; the durable case adds a one-shard
// crash after which only the victim replays its journal.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "service/shard_map.hpp"
#include "testkit/soak_driver.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {
namespace {

std::string TempDirFor(const char* name) {
  std::string dir = ::testing::TempDir() + "/shard_soak_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Mixed reads and light churn over a corpus spread across the shards.
WorkloadSpec ShardSpec(uint64_t seed, int documents) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.operations = 2000;
  spec.documents = documents;
  spec.queries = 24;
  spec.min_document_nodes = 30;
  spec.max_document_nodes = 80;
  spec.query_options.max_path_steps = 3;
  spec.query_options.max_condition_depth = 2;
  spec.churn_probability = 0.01;
  return spec;
}

// Shards owning no churned document; the driver requires their answer
// caches to record no invalidation, retention or remap.
int QuietShards(const Schedule& schedule, int shards) {
  service::ShardMap map(shards);
  std::vector<bool> churned(static_cast<size_t>(shards), false);
  for (const Operation& op : schedule.operations) {
    if (op.kind == Operation::Kind::kAddDocument ||
        op.kind == Operation::Kind::kEditDocument) {
      churned[static_cast<size_t>(
          map.ShardOf(schedule.doc_keys[static_cast<size_t>(op.doc)]))] = true;
    }
  }
  return static_cast<int>(std::count(churned.begin(), churned.end(), false));
}

TEST(ShardSoakTest, TwoShardsStayIsolatedUnderChurn) {
  auto schedule = CompileWorkload(ShardSpec(0x600d5eed, 16));
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  SoakOptions options;
  options.shards = 2;
  options.threads = 2;
  options.standing_queries = 6;
  SoakReport report = RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.mutations, 0) << report.Summary();
  EXPECT_GT(report.requests, 0) << report.Summary();
  EXPECT_GT(report.subscription_events, 0) << report.Summary();
  EXPECT_GT(report.stats.answer_cache.hits, 0) << report.Summary();
  EXPECT_EQ(report.recoveries, 0);
}

// Churn light enough that some shards own no churned document: they must
// see nothing of their siblings' churn.
TEST(ShardSoakTest, FourShardsStayIsolatedUnderChurn) {
  WorkloadSpec spec = ShardSpec(0x40054d, 16);
  spec.churn_probability = 0.002;
  auto schedule = CompileWorkload(spec);
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  ASSERT_GT(QuietShards(*schedule, 4), 0);
  SoakOptions options;
  options.shards = 4;
  options.threads = 2;
  options.standing_queries = 6;
  SoakReport report = RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ShardSoakTest, OneShardCrashRecoversAloneAndExactly) {
  auto schedule = CompileWorkload(ShardSpec(0xdead10cc, 12));
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  SoakOptions options;
  options.shards = 2;
  options.rounds = 2;  // a clean close, then the crash
  options.threads = 2;
  options.standing_queries = 6;
  options.wal_dir = TempDirFor("recovery");
  SoakReport report = RunSoak(*schedule, options);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.recoveries, 2);
  EXPECT_EQ(report.crashes, 1);
  EXPECT_GT(report.victim_records_replayed, 0) << report.Summary();
  std::filesystem::remove_all(options.wal_dir);
}

}  // namespace
}  // namespace gkx::testkit
