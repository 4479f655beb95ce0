// Concurrent replay of a compiled Schedule against a live QueryService,
// with every answer checked against the single-threaded Oracle.
//
// Determinism model: the schedule fixes the operations; the driver fixes
// which thread runs which operation (operation index mod threads — except
// churn, see below); only the interleaving across threads varies run to
// run. Every check is therefore phrased against a *window* of legal
// states:
//
//   * A read of document d may observe any revision in [lo, hi], where lo
//     is the last revision the reading thread itself installed (same-thread
//     Put→Get ordering through the store mutex) and hi is the last revision
//     any churn op installs. Matching none of them means a torn or stale
//     snapshot — or a wrong answer.
//   * All churn for a given document is pinned to one thread
//     (doc mod threads), so per-document revisions are installed in
//     schedule order and the final store state is deterministic: after the
//     join, document d must be byte-identical to its highest revision
//     (anything else is a lost update). Subtree-edit churn
//     (Operation::kEditDocument) is replayed through the delta path —
//     QueryService::UpdateDocument — and immediately after each patch the
//     churn thread re-reads the stored document and checks it node-for-node
//     against the schedule's precomputed revision (itself cross-checked at
//     compile time against a from-scratch rebuild): the live delta pipeline
//     is differentially tested against full replacement on every round.
//   * Service counters must reconcile: every request performs exactly one
//     plan-cache lookup, parse failures are impossible by construction,
//     latency samples must sum to the successful requests, staged
//     segments must fit in the route counts, and evictions observed
//     through the PlanCache on_evict hook must equal the eviction
//     counter. When the answer cache is enabled its
//     lookups must also sum to the successful requests and every miss must
//     resolve to an insert or an oversize decline.
//   * Standing queries (standing_queries > 0): the driver subscribes the
//     first K node-set-typed pool queries against every document before the
//     replay. After the join it flushes deliveries and re-applies each
//     (subscription, document) diff stream from the empty set: every
//     intermediate state must equal the oracle's answer for *some* revision
//     of that document, and the final state must equal the answer at the
//     highest revision — anything else is a lost, duplicated, reordered, or
//     stale diff.
//
// Every failure message embeds the schedule seed and operation index, so
// any divergence is reproducible with a single-threaded replay of the same
// (spec, seed).

#ifndef GKX_TESTKIT_SOAK_DRIVER_HPP_
#define GKX_TESTKIT_SOAK_DRIVER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "service/query_service.hpp"
#include "testkit/oracle.hpp"
#include "testkit/workload.hpp"

namespace gkx::testkit {

struct SoakOptions {
  /// Replay threads (plain std::threads; the service's own pool still backs
  /// SubmitBatch underneath, which is the point — both layers get traffic).
  int threads = 4;
  /// Standing queries to subscribe ("doc*", i.e. the whole corpus) before
  /// replay: the first `standing_queries` node-set-typed queries of the
  /// pool (fewer if the pool runs short). 0 = no subscriptions.
  int standing_queries = 0;
  /// Service under test. answer_tap / plan-cache hooks set here are
  /// preserved (the driver composes its own observation on top).
  service::QueryService::Options service;
  /// Failure messages kept verbatim (the count is always exact).
  size_t max_failures_reported = 8;
};

struct SoakReport {
  uint64_t seed = 0;
  int threads = 0;
  int64_t operations = 0;          // schedule entries replayed
  int64_t requests = 0;            // submits, batched requests included
  int64_t oracle_evaluations = 0;  // naive-oracle work done up front
  int64_t divergences = 0;         // answers matching no legal revision
  int64_t errors = 0;              // non-OK responses (none are legal)
  int64_t lost_updates = 0;        // final doc != highest revision
  int64_t patches = 0;             // subtree-edit churn ops replayed
  int64_t patch_divergences = 0;   // post-patch store state != precomputed
                                   // revision (delta path broke)
  int64_t stats_violations = 0;    // counter reconciliation failures
  int64_t subscriptions = 0;             // standing queries registered
  int64_t subscription_events = 0;       // diffs delivered to the driver
  int64_t subscription_violations = 0;   // diff streams violating the oracle
  /// First max_failures_reported messages, each embedding seed= and op=.
  std::vector<std::string> failures;
  service::ServiceStats stats;
  /// ExportStats(kJson) captured at the same point as `stats` — what
  /// bench_soak --stats-json= dumps and the CI schema check validates.
  std::string stats_json;

  bool ok() const {
    return divergences == 0 && errors == 0 && lost_updates == 0 &&
           patch_divergences == 0 && stats_violations == 0 &&
           subscription_violations == 0;
  }
  /// One-paragraph human-readable rollup (used by bench_soak and gtest).
  std::string Summary() const;
};

/// Replays the schedule and returns the full report. Thread-count and
/// schedule size are the caller's choice; the driver itself adds no
/// randomness.
SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options = {});

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_SOAK_DRIVER_HPP_
