// The one soak driver: concurrent replay of a compiled Schedule against a
// live ShardedQueryService, with every answer checked against the
// single-threaded Oracle. Three knobs pick the regime:
//
//   * shards — the router always sits in front. With 1 shard it is the
//     N=1 router, whose SubmitBatch forwards straight to its one shard;
//     with >= 2 one batch loop routes each request to its shard and
//     subscriptions fan in.
//   * rounds — the operation list is replayed in `rounds` contiguous
//     segments, one service incarnation each.
//   * wal_dir — durable shards under <wal_dir>/shard<i>. Each segment ends
//     with a kill and a reopen of the same directory: even rounds close
//     cleanly, odd rounds crash (CrashWalForTest drops the in-memory tail as
//     kill -9 would). With >= 2 shards the crash hits one victim shard; its
//     siblings are checkpointed first and close cleanly. One extra
//     incarnation at the end verifies the last kill.
//
// Determinism model: the schedule fixes the operations; the driver fixes
// which thread runs which operation (operation index mod threads, except
// churn, which is pinned by document mod threads so per-document revisions
// are installed in schedule order); only the interleaving varies run to
// run. Every check is phrased against a window of legal states:
//
//   * Answers. A read of document d may observe any revision in [lo, hi]:
//     lo is the last revision the reading thread installed itself (or the
//     segment's starting watermark), hi the last revision the segment's
//     churn installs. Matching none is a torn or stale snapshot or a wrong
//     answer; a non-OK answer is an error.
//   * Patches. After each UpdateDocument the owning shard's stored document
//     must ExhaustiveEquals the schedule's precomputed revision.
//   * Corpus. At the end of every segment, and again after every reopen,
//     each document must ExhaustiveEquals its watermark revision (anything
//     else is a lost update, a replay mis-ordering or a corrupt snapshot).
//   * Subscriptions. Each standing query is subscribed as "doc*" (fanned in
//     from every shard); the first is also subscribed per document by exact
//     key (routed to the owning shard). Every event must carry a registered
//     subscription id and a document its selector matches. Each
//     (subscription, document) diff stream, re-applied from empty, may only
//     pass through answers of real revisions and must end at the watermark
//     revision's answer; a document the segment never churned gets exactly
//     its initial event.
//   * Counters, per shard and in aggregate: requests and batches as routed
//     (a batch counts once per shard it touches), one plan-cache lookup per
//     request, latency samples per successful request, at least one route
//     per evaluated request and no more skipped segments than routed ones,
//     answer-cache lookups and inserts, deliveries and subscription members
//     (a prefix selector reaches every shard), evictions as observed
//     through on_evict.
//   * Isolation. Each shard's store revision grows by exactly the churn on
//     the documents it owns; a shard owning no churned document records no
//     answer-cache invalidation, retention or remap; with the answer cache on,
//     a shard whose schedule guarantees a warm read serves a hit.
//   * Durability. The halfway operation's thread forces CheckpointNow while
//     the other threads keep writing. After every reopen wal_status() is OK,
//     the WAL is enabled and no torn tail is reported; after a crash each
//     sibling replays no record and loads one snapshot per document it owns.
//     The final incarnation answers an oracle-known query on every document.
//
// Every failure message embeds seed= and round= (and op= for a per-operation
// failure), so a divergence replays from CompileWorkload(spec, seed).

#ifndef GKX_TESTKIT_SOAK_DRIVER_HPP_
#define GKX_TESTKIT_SOAK_DRIVER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "service/query_service.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {

struct SoakOptions {
  /// Replay threads (plain std::threads; the router's pool still backs
  /// SubmitBatch underneath, so both layers get traffic).
  int threads = 4;
  /// Standing queries: the first `standing_queries` node-set-typed pool
  /// queries (fewer if the pool runs short). 0 = no subscriptions.
  int standing_queries = 0;
  /// Shards behind the router (>= 1).
  int shards = 1;
  /// Segments, one incarnation each; > 1 requires wal_dir.
  int rounds = 1;
  /// Non-empty = durable shards plus the kill/reopen after every segment.
  /// The directory must be fresh (the caller wipes it).
  std::string wal_dir;
  /// Per-shard service template (wal_dir must stay empty). answer_tap and
  /// plan-cache hooks set here are preserved; the driver composes its own
  /// observation on top.
  service::QueryService::Options service;
};

struct SoakReport {
  uint64_t seed = 0;
  int threads = 0;
  int shards = 0;
  int rounds = 0;
  int64_t operations = 0;          // schedule entries replayed
  int64_t requests = 0;            // submits, batched requests included
  int64_t mutations = 0;           // churn operations replayed
  int64_t patches = 0;             // of which subtree edits
  int64_t oracle_evaluations = 0;  // naive-oracle work done up front
  int64_t subscriptions = 0;       // standing queries per incarnation
  int64_t subscription_events = 0; // diffs delivered, all incarnations

  // Durable runs.
  int64_t checkpoints = 0;         // forced mid-segment checkpoints
  int64_t crashes = 0;             // CrashWalForTest kills
  int64_t clean_closes = 0;        // destructor-only kills
  int64_t recoveries = 0;          // reopens
  int64_t snapshots_loaded = 0;    // summed over recoveries and shards
  int64_t records_replayed = 0;    // summed over recoveries and shards
  int64_t records_skipped = 0;     // summed over recoveries and shards
  int64_t victim_records_replayed = 0;  // by crashed shards only

  // Failure classes; ok() iff all are zero.
  int64_t divergences = 0;         // answers matching no legal revision
  int64_t errors = 0;              // non-OK answers, mutations, checkpoints
  int64_t lost_updates = 0;        // corpus != watermark revision
  int64_t patch_divergences = 0;   // stored patch != precomputed revision
  int64_t stats_violations = 0;    // counter reconciliation and isolation
  int64_t subscription_violations = 0;
  int64_t recovery_violations = 0; // WAL status, torn tails, sibling replay
  /// The first failure messages, each embedding seed= and round=.
  std::vector<std::string> failures;

  /// Aggregate stats and ExportStats(kJson) of the last segment's
  /// incarnation, captured before its kill (a router document with a
  /// shards[] breakdown — what bench_soak --stats-json= dumps).
  service::ServiceStats stats;
  std::string stats_json;

  bool ok() const {
    return divergences == 0 && errors == 0 && lost_updates == 0 &&
           patch_divergences == 0 && stats_violations == 0 &&
           subscription_violations == 0 && recovery_violations == 0;
  }
  /// One-paragraph human-readable rollup (used by the benches and gtest).
  std::string Summary() const;
};

/// Replays the schedule and returns the full report. The driver itself adds
/// no randomness.
SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options = {});

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_SOAK_DRIVER_HPP_
