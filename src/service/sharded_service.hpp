// Shared-nothing corpus sharding: N independent QueryService shards behind
// one router that preserves the single-service public API. Each shard owns
// the full vertical — DocumentStore, PlanCache, AnswerCache,
// SubscriptionManager, metric registry, and (when durable) its own WAL
// directory — and never shares mutable state with a sibling: no cross-shard
// locks, no global listener fan-out, no shared caches. Documents are
// partitioned by ShardMap (stable FNV-1a of the key, see shard_map.hpp), so
// footprint invalidation, subscription scheduling, and journal recovery are
// per-shard by construction. Today's single process is exactly the N=1
// case.
//
// Routing:
//   * point requests (Register/Update/Remove/Submit) go to the owning
//     shard — one hash, no coordination;
//   * SubmitBatch runs the one batch loop (QueryService::RunBatch) over
//     the whole batch, each request going straight to its owning shard's
//     request path — no per-shard sub-batches, no nested fork-joins.
//     Answer-cache hits are served in order on the calling thread; at the
//     first request that has to evaluate, the rest is forked once over the
//     pool. An exception out of any request of shard s marks every slot of
//     s as kInternal ("shard s sub-batch failed: ..."), and s serves
//     nothing more of that batch; sibling shards' results are never
//     discarded;
//   * Subscribe routes an exact-key selector to the owning shard and a
//     trailing-'*' prefix selector to every shard, then fans all member
//     deliveries into the caller's single callback through one mutex — the
//     subscriber sees one logical stream under one router-level id, with
//     per-document event order preserved (a document lives on exactly one
//     shard). Unlike QueryService, the router callback must NOT call
//     Unsubscribe on its own subscription: with multiple member shards the
//     unsubscribe would block on a sibling delivery that is itself waiting
//     for the merged-delivery mutex the callback holds.
//
// Stats: the aggregate is built from the shards' metric registries merged
// into one (obs::MetricRegistry::MergeInto — counters and gauges add,
// histograms merge bucket-exact, so aggregate percentiles are true
// percentiles, not averages of summaries) and is the same "gkx-stats-v2"
// document a single service exports; Stats() reads it back. ExportStats()
// adds a per-shard breakdown under "shards" (tools/check_stats_json
// re-proves that the per-shard counts sum to the aggregate).
//
// Thread safety: every public method may be called concurrently, including
// SubmitBatch from many threads at once (each batch forks at most once onto
// the shared pool).

#ifndef GKX_SERVICE_SHARDED_SERVICE_HPP_
#define GKX_SERVICE_SHARDED_SERVICE_HPP_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/status.hpp"
#include "base/thread_pool.hpp"
#include "mview/subscription.hpp"
#include "service/query_service.hpp"
#include "service/shard_map.hpp"
#include "service/stats.hpp"

namespace gkx::service {

class ShardedQueryService {
 public:
  struct Options {
    /// Number of shards (>= 1).
    int shards = 1;
    /// Per-shard configuration template. `shard.wal.dir` must stay empty —
    /// durability is configured through `wal_dir` below so the router can
    /// lay out one journal directory per shard.
    QueryService::Options shard;
    /// Durability root: non-empty opens shard i's WAL under
    /// `<wal_dir>/shard<i>`. Because ShardMap is stable, a reopened router
    /// with the same shard count recovers every document into the shard
    /// that journaled it.
    std::string wal_dir;
    /// Pool a SubmitBatch forks onto at its first answer-cache miss, with
    /// the shard template's batch_workers as the width; nullptr = the shard
    /// template's pool, falling back to ThreadPool::Shared(). The shards'
    /// subscription work runs on theirs.
    ThreadPool* pool = nullptr;
  };

  using Request = QueryService::Request;
  using Answer = QueryService::Answer;

  ShardedQueryService() : ShardedQueryService(Options{}) {}
  explicit ShardedQueryService(const Options& options);

  // -------------------------------------------------------------- corpus
  Status RegisterDocument(std::string key, xml::Document doc);
  Status RegisterXml(std::string key, std::string_view xml);
  Status UpdateDocument(std::string_view key, const xml::SubtreeEdit& edit);
  bool RemoveDocument(std::string_view key);
  /// Total documents across all shards.
  size_t document_count() const;

  // -------------------------------------------------------------- queries
  Result<Answer> Submit(const std::string& doc_key,
                        const std::string& query_text);
  /// One batch loop over every shard (see Routing above); responses[i]
  /// answers requests[i].
  std::vector<Result<Answer>> SubmitBatch(const std::vector<Request>& requests);

  // -------------------------------------------------------- subscriptions
  /// Same contract as QueryService::Subscribe (selector semantics, initial
  /// pure-`added` answer, node-set queries only), delivered through one
  /// merged stream carrying the returned router-level id. See the header
  /// comment for the one extra restriction on callbacks.
  Result<int64_t> Subscribe(std::string doc_selector,
                            const std::string& query_text,
                            mview::SubscriptionCallback callback);
  bool Unsubscribe(int64_t subscription_id);
  /// Blocks until every member shard delivered everything scheduled so far.
  void FlushSubscriptions();

  // -------------------------------------------------------------- admin
  /// Cross-shard aggregate: counters summed, histograms merged bucket-exact.
  /// Per-shard snapshots are shard(i).Stats().
  ServiceStats Stats() const;
  /// One aggregated "gkx-stats-v2" document plus a "shards" breakdown.
  std::string ExportStats(StatsFormat format = StatsFormat::kText) const;
  /// Checkpoints every durable shard; first error wins (all shards are
  /// still attempted).
  Status CheckpointNow();

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int ShardOf(std::string_view key) const { return map_.ShardOf(key); }
  /// Direct access to one shard — recovery inspection, targeted test hooks
  /// (e.g. CrashWalForTest on a single shard), never for routing around the
  /// partition map.
  QueryService& shard(int index) { return *shards_[index]; }
  const QueryService& shard(int index) const { return *shards_[index]; }

 private:
  /// Shared fan-in state of one router-level subscription.
  struct MergedSubscription {
    int64_t id = 0;
    std::mutex mu;  // the single merged delivery path
    mview::SubscriptionCallback callback;
  };

  QueryService& Owner(std::string_view key) { return *shards_[map_.ShardOf(key)]; }

  /// The aggregate document: every shard's registry merged into one, the
  /// settings of the shard template, and all shards' slow queries.
  obs::json::Value MergedStatsDocument() const;

  Options options_;
  ShardMap map_;
  ThreadPool* pool_;  // never null after construction
  std::vector<std::unique_ptr<QueryService>> shards_;

  mutable std::mutex subs_mu_;
  /// Router subscription id → (shard index, shard-level id) members.
  std::unordered_map<int64_t, std::vector<std::pair<int, int64_t>>> subs_;
  int64_t next_subscription_id_ = 1;
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_SHARDED_SERVICE_HPP_
