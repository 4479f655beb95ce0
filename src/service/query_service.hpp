// The serving facade — the first long-lived, stateful layer above
// eval::Engine. A QueryService owns
//   * a DocumentStore: named documents registered once, evaluated many
//     times, each with a lazily-built DocumentIndex and a store-wide
//     monotonic revision id;
//   * a PlanCache: compiled plan::Physical plans shared across requests and
//     documents (shard-locked LRU, canonical-form aliasing);
//   * an mview::AnswerCache: fully evaluated answers keyed by
//     (document, revision, canonical plan), invalidated per plan footprint
//     when documents churn (see mview/answer_cache.hpp);
//   * an mview::SubscriptionManager: standing queries that push diffed
//     answers to callbacks on churn instead of being re-polled;
//   * a ThreadPool: a SubmitBatch that has to evaluate forks onto it, and
//     subscription re-evaluations run on it. Cores go to separate requests:
//     each request runs its plan on one thread.
//
// Request flow: Submit(doc_key, query)
//   1. document lookup (shared_ptr — removal never races an evaluation),
//   2. plan lookup/compile in the PlanCache (repeat queries skip
//      lex/parse/classify),
//   3. answer-cache lookup by (doc, revision, canonical plan) — a hit skips
//      evaluation entirely and is byte-identical to running the plan,
//   4. on miss, execute: the indexed PF fast path when the plan's shape
//      allows it (evaluator label "pf-indexed"), otherwise the plan's
//      segment pipeline exactly as Engine::RunPlan runs it; the fresh
//      answer is inserted into the answer cache.
// Answer *values* are identical to a fresh Engine::Run of the same text.
// The fragment report and evaluator label describe the cached plan, which
// is compiled from the query's canonical (optimized) form — so a
// pessimized spelling can legitimately report a smaller fragment and a
// cheaper engine ("pf-indexed" on the fast path) than its surface syntax.
// A cached answer reports the evaluator label it was produced with.
//
// Thread safety: every public method may be called concurrently.

#ifndef GKX_SERVICE_QUERY_SERVICE_HPP_
#define GKX_SERVICE_QUERY_SERVICE_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "base/thread_pool.hpp"
#include "eval/engine.hpp"
#include "mview/answer_cache.hpp"
#include "mview/subscription.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/document_store.hpp"
#include "service/plan_cache.hpp"
#include "service/stats.hpp"
#include "wal/wal.hpp"

namespace gkx::service {

/// A point-in-time stats snapshot: the typed view of the stats document,
/// read back from it by ReadServiceStats (which names each field's leaf).
struct ServiceStats {
  int64_t requests = 0;  // Submit calls + batched requests
  int64_t batches = 0;   // SubmitBatch calls
  int64_t failures = 0;  // requests that returned a non-OK status
  size_t documents = 0;
  size_t plan_cache_entries = 0;
  PlanCache::Counters plan_cache;
  /// Materialized answers: answer_cache.{hits,misses,invalidations,bytes,
  /// retained,evictions,entries}. When the cache is disabled every field
  /// stays 0.
  bool answer_cache_enabled = false;
  mview::AnswerCache::Counters answer_cache;
  /// Standing queries: subscriptions.{active,fired,coalesced,
  /// skipped_disjoint,evaluations}.
  mview::SubscriptionManager::Counters subscriptions;
  /// How often each served route executed, keyed "pf-indexed",
  /// "pf-frontier", "core-linear", "cvt" (always all four): an evaluated
  /// plan counts once per segment of its trace (a scalar root as its one
  /// cvt segment), the index fast path as "pf-indexed". Answer-cache hits
  /// execute nothing and count nothing; every successful evaluation counts
  /// at least once. These are the counts of the routes.<route> latency
  /// histograms, recorded whether or not tracing is on.
  std::map<std::string, int64_t> segment_route_counts;
  /// Whether per-stage tracing is on (Options::obs.tracing).
  bool tracing = false;
  /// Plan segments skipped because the frontier was already empty (see
  /// plan/exec.hpp); they are counted in segment_route_counts too.
  int64_t exec_skipped_segments = 0;
  /// Requests that crossed the slow-query threshold (including entries the
  /// bounded log has since evicted).
  int64_t slow_queries = 0;
  /// All-time total request latency in milliseconds (recorded whether or
  /// not tracing is on): count == requests - failures.
  obs::HistogramSummary latency;
};

/// The typed view of a stats document (BuildStatsDocument); a leaf the
/// document lacks reads as zero.
ServiceStats ReadServiceStats(const obs::json::Value& document);

class QueryService {
 public:
  struct Options {
    PlanCache::Options plan_cache;
    /// Materialized answer cache (see mview/answer_cache.hpp). Enabled by
    /// default; disable to measure raw evaluation throughput.
    bool answer_cache_enabled = true;
    mview::AnswerCache::Options answer_cache;
    /// Region×name invalidation for subtree updates (the delta pipeline).
    /// When false, UpdateDocument still applies patches but churn is
    /// reported to the mview layer as whole-document replacement — the
    /// name-only baseline, kept measurable for EXP-DELTA and differential
    /// soaks.
    bool delta_invalidation = true;
    /// Pool for SubmitBatch and subscription re-evaluation; nullptr =
    /// ThreadPool::Shared().
    ThreadPool* pool = nullptr;
    /// Threads a batch forks onto at its first answer-cache miss (see
    /// SubmitBatch), the calling thread included; 0 = every pool thread
    /// plus the caller. 1 serves every batch serially, in request order.
    int batch_workers = 0;
    /// Request tracing: the sampled per-stage histograms, the update.*
    /// histograms and the slow-query log (see obs/trace.hpp). Total request
    /// latency and the per-route histograms are recorded regardless.
    obs::TraceOptions obs;
    /// Test-only fault-injection hook: invoked on every successful answer
    /// (after execution or answer-cache hit, before counters/latency are
    /// recorded) and may mutate it to simulate an engine defect. The soak
    /// harness uses this to prove its oracle catches semantic divergences.
    /// Fresh answers are cached *before* the tap runs, so the cache holds
    /// true answers and the tap perturbs every serve alike. Must be
    /// thread-safe. nullptr (the default) = production behaviour.
    std::function<void(eval::Engine::Answer* answer)> answer_tap;
    /// Durability (src/wal/wal.hpp). A non-empty `wal.dir` opens a
    /// write-ahead log in that directory at construction: recover whatever
    /// a previous incarnation persisted there (checkpoint snapshots +
    /// journal replay, torn tail truncated), then journal every subsequent
    /// corpus mutation before it is acknowledged. Empty (the default) =
    /// in-memory only. If open/recovery fails the service still constructs
    /// and serves — in memory, without a WAL — and wal_status() carries the
    /// reason. The other fields tune the log (fsync, checkpoint threshold).
    wal::WalOptions wal;
  };

  struct Request {
    std::string doc_key;
    std::string query;
  };

  using Answer = eval::Engine::Answer;

  QueryService() : QueryService(Options{}) {}
  explicit QueryService(const Options& options);

  // -------------------------------------------------------------- corpus
  /// Registers (or replaces) a parsed document. Replacement invalidates
  /// affected answer-cache entries and wakes affected subscriptions.
  Status RegisterDocument(std::string key, xml::Document doc);
  /// Parses and registers.
  Status RegisterXml(std::string key, std::string_view xml);
  /// Applies a subtree patch to the registered document (xml/edit.hpp):
  /// one O(|D|) splice instead of parse + rebuild (the new revision builds
  /// its index on its first indexed query), and — per the patch's
  /// DocumentDelta — answer cache invalidation and subscription wake-ups
  /// scoped to the edited region's names instead of the whole document's.
  Status UpdateDocument(std::string_view key, const xml::SubtreeEdit& edit);
  bool RemoveDocument(std::string_view key);
  const DocumentStore& documents() const { return store_; }

  // -------------------------------------------------------------- queries
  /// Evaluates one query against one registered document (root context).
  Result<Answer> Submit(const std::string& doc_key,
                        const std::string& query_text);

  /// Serves a batch; responses[i] corresponds to requests[i], and
  /// per-request failures do not affect other requests. Requests run in
  /// order on the calling thread while the answer cache answers them; at
  /// the first one that has to evaluate, the rest are shared out over the
  /// pool (Options::batch_workers threads).
  std::vector<Result<Answer>> SubmitBatch(const std::vector<Request>& requests);

  // -------------------------------------------------------- subscriptions
  /// Registers a standing query: `doc_selector` is an exact document key or
  /// a trailing-'*' prefix pattern ("doc*", "*"). A trailing '*' ALWAYS
  /// reads as the prefix wildcard — a document key that itself ends in '*'
  /// cannot be selected exactly (see SubscriptionManager::SelectorMatches).
  /// `query_text` must be node-set-typed. The callback receives the initial
  /// answer as a
  /// pure-`added` diff and subsequent churn as added/removed diffs, on pool
  /// threads (see mview/subscription.hpp for ordering and coalescing).
  Result<int64_t> Subscribe(std::string doc_selector,
                            const std::string& query_text,
                            mview::SubscriptionCallback callback);
  /// Stops a standing query; no callbacks fire after this returns.
  bool Unsubscribe(int64_t subscription_id);
  /// Blocks until all subscription evaluations scheduled so far delivered.
  void FlushSubscriptions();

  // -------------------------------------------------------------- admin
  /// ReadServiceStats of ExportStatsDocument().
  ServiceStats Stats() const;

  /// Serializes the full observability surface: kJson produces the
  /// structured "gkx-stats-v2" document; kText flattens its numeric leaves
  /// into `gkx_section_name value` lines (Prometheus-style). Implemented in
  /// stats_export.cpp.
  std::string ExportStats(StatsFormat format = StatsFormat::kText) const;

  /// The structured stats document ExportStats serializes, as a JSON value:
  /// BuildStatsDocument over metrics(). The sharded router embeds one of
  /// these per shard under "shards".
  obs::json::Value ExportStatsDocument() const;

  /// The one stats store: every number of the stats document, registered
  /// under its document path. The router merges these (MergeInto) for its
  /// aggregate. Safe to read while the service is serving.
  const obs::MetricRegistry& metrics() const { return registry_; }

  /// The most recent slow queries (empty when tracing is off). Newest last.
  std::vector<obs::SlowQuery> SlowQueries() const {
    return slow_log_.Snapshot();
  }

  const PlanCache& plan_cache() const { return plan_cache_; }
  const mview::AnswerCache& answer_cache() const { return answer_cache_; }

  // ----------------------------------------------------------- durability
  /// True when Options::wal.dir was set and the log opened (and recovered)
  /// successfully — every mutation from now on is durable before it is
  /// acknowledged.
  bool wal_enabled() const { return wal_ != nullptr; }
  /// Ok when there is no WAL configured or it opened cleanly; otherwise the
  /// open/recovery error (the service then runs in-memory only).
  const Status& wal_status() const { return wal_status_; }
  /// What recovery found at construction: snapshots loaded, records
  /// replayed/skipped, torn-tail bytes truncated. Zeroes without a WAL.
  const wal::RecoveryReport& wal_recovery() const { return wal_recovery_; }
  /// Forces a checkpoint now (snapshot set + manifest + journal reset) in
  /// the calling thread, independent of the byte-threshold trigger. No-op
  /// Ok without a WAL.
  Status CheckpointNow();
  /// Test hook: drops the WAL's in-memory tail and stops journaling, as a
  /// kill -9 would — acknowledged records stay durable on disk, everything
  /// else is gone. The recovery soak reopens the directory afterwards.
  void CrashWalForTest();

 private:
  // The router serves its shards' requests through RunBatch and Process.
  friend class ShardedQueryService;

  /// Full request path; `engine` is the calling thread's engine. Sets
  /// `*evaluated` when the request ran a plan, i.e. did not come from the
  /// answer cache.
  Result<Answer> Process(eval::Engine& engine, const std::string& doc_key,
                         const std::string& query_text, bool* evaluated);

  /// The one batch loop, behind SubmitBatch here and in the router.
  /// `serve(engine, i)` answers request i and returns whether it evaluated.
  /// Requests run in order on the calling thread until the first one that
  /// evaluated; the unclaimed rest then go to one ParallelFor of
  /// `batch_workers` threads (0 = every pool thread plus the caller) over a
  /// shared cursor. Each thread uses one Engine.
  using BatchStep = std::function<bool(eval::Engine& engine, size_t i)>;
  static void RunBatch(ThreadPool& pool, int batch_workers, size_t n,
                       const BatchStep& serve);
  /// What a batch slot holds until its request is served.
  static Result<Answer> Unserved();

  /// DocumentStore update listener: fans the CorpusUpdate (changed-name
  /// set + optional subtree delta) out to answer-cache invalidation and
  /// subscription scheduling.
  void OnCorpusUpdate(const CorpusUpdate& update);

  obs::Histogram* RouteHistogram(plan::Route route) const {
    return routes_[1 + static_cast<size_t>(route)];
  }

  Options options_;
  ThreadPool* pool_;  // never null after construction
  DocumentStore store_;
  PlanCache plan_cache_;
  mview::AnswerCache answer_cache_;

  // Observability state. Declared BEFORE subscriptions_: subscription
  // evaluations on pool threads record into these histograms via the
  // evaluation observer, and the manager's destructor quiesces those tasks
  // — so the metrics must be destroyed after it.
  obs::MetricRegistry registry_;
  /// The sub-microsecond lookup stages (doc / plan / answer-cache lookup)
  /// stamp the clock on every kStageSampleEvery-th request only: a warm
  /// answer-cache hit serves in ~0.5us, so per-request stamps there would
  /// cost tens of percent (bench_obs_overhead holds the bar at < 5%).
  /// Execution-side spans are per-request — they run only on answer-cache
  /// misses, where evaluation amortizes them. Power of two.
  static constexpr int64_t kStageSampleEvery = 64;
  // Stable pointers into registry_, wired once in the constructor so the
  // request path never takes the registry lock.
  obs::Counter* requests_;  // Submit calls + batched requests
  obs::Counter* batches_;
  obs::Counter* failures_;
  obs::Counter* skipped_segments_;  // plan segments that did not run
  obs::Histogram* latency_;  // total request latency, always recorded
  /// How often and how long each served route ran, always recorded — only
  /// answer-cache misses execute a route, where evaluation amortizes the
  /// clock reads. Slot 0 is the DocumentIndex fast path ("pf-indexed");
  /// slots 1-3 are the plan::Route engines in enum order.
  std::array<obs::Histogram*, 4> routes_;
  obs::Histogram* stage_doc_lookup_;
  obs::Histogram* stage_plan_lookup_;
  obs::Histogram* stage_answer_cache_lookup_;
  obs::Histogram* stage_execute_;
  obs::Histogram* stage_cache_insert_;
  obs::Counter* update_count_;
  obs::Histogram* update_splice_;
  obs::Histogram* update_affected_scan_;
  obs::Histogram* update_invalidated_;   // kCount: entries per update
  obs::Histogram* update_retained_;
  obs::Histogram* update_remapped_;
  obs::Histogram* update_sub_eval_;
  obs::SlowQueryLog slow_log_;
  const bool tracing_;  // Options::obs.tracing

  mview::SubscriptionManager subscriptions_;  // declared after store_/pool_:
                                              // destroyed first, quiescing
                                              // pool tasks that use them

  // Durability. Declared LAST: the Wal destructor joins its committer
  // thread, which records into registry_ metrics — everything above must
  // still be alive while it drains. The store holds a raw wal_ pointer
  // (AttachWal), but by the time wal_ is destroyed no mutations can be in
  // flight (callers of a dying service are already UB).
  Status wal_status_;
  wal::RecoveryReport wal_recovery_;
  std::unique_ptr<wal::Wal> wal_;
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_QUERY_SERVICE_HPP_
