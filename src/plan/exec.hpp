// Hybrid execution of a staged Physical plan (stage 4 of the pipeline in
// ir.hpp). Bitset-native segments run as frontier sweeps; cvt segments run
// per origin node through a context-value-table engine bound to the plan's
// query (so predicate memoization is shared across origins and segments);
// the materialization boundaries convert NodeBitset ⇄ document-order
// NodeSet exactly at segment seams. Answers are byte-identical to what any
// single whole-query engine produces — the evaluator-agreement and soak
// suites pin this against the naive oracle.

#ifndef GKX_PLAN_EXEC_HPP_
#define GKX_PLAN_EXEC_HPP_

#include <atomic>
#include <cstdint>
#include <vector>

#include "base/status.hpp"
#include "base/thread_pool.hpp"
#include "eval/context.hpp"
#include "eval/value.hpp"
#include "plan/physical.hpp"

namespace gkx::eval {
class CoreLinearEvaluator;
class CvtEvaluator;
}  // namespace gkx::eval

namespace gkx::plan {

/// Intra-query parallelism knobs. The defaults come straight from the
/// CostModel (physical.hpp): workers <= 1 keeps the whole execution
/// sequential; otherwise bitset segments partition their sweeps into
/// word-aligned preorder intervals and cvt segments fan their per-origin
/// loop out — but only past the thresholds, so a tiny frontier never pays
/// fork/join overhead.
struct ExecOptions {
  /// Pool to fan out on; nullptr with workers > 1 = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Concurrent workers per segment (the calling thread participates).
  int workers = 1;
  /// Below this document size, bitset sweeps stay sequential.
  int32_t min_parallel_nodes = kDefaultCostModel.min_parallel_nodes;
  /// Below this origin count, the per-origin cvt loop stays sequential.
  int min_parallel_origins = kDefaultCostModel.min_parallel_origins;
  /// Optional long-lived bound engines (the prepared-statement pattern).
  /// When set, ExecuteStaged runs on these instead of run-private
  /// instances, so the test-set bitsets and context-value tables persist
  /// across runs: re-executing the same plan on the same document turns
  /// memo fills into memo hits. The evaluators detect same-binding reuse
  /// by (address, serial) identity — see base/identity.hpp — and rebuild
  /// automatically when the document or plan actually changed, so answers
  /// are byte-identical to a cold run. The caller must not share one
  /// evaluator across concurrent ExecuteStaged calls (eval::Engine passes
  /// its own members; Engine is single-threaded by contract).
  eval::CoreLinearEvaluator* linear = nullptr;
  eval::CvtEvaluator* cvt = nullptr;
};

/// How staged segments actually executed. Shared across concurrent
/// executions (the service owns one and hands it to every engine), so the
/// counters are atomic. The invariant the soak reconciliation checks:
///   parallel + sequential + skipped == total staged segments dispatched,
/// exactly — every segment of every executed staged plan lands in exactly
/// one bucket (skipped = its frontier was already empty).
struct ExecStats {
  std::atomic<int64_t> parallel_segments{0};
  std::atomic<int64_t> sequential_segments{0};
  std::atomic<int64_t> skipped_segments{0};
};

/// Wall-clock of one executed segment. When a trace is requested, EVERY
/// segment of every branch gets exactly one entry in plan order — segments
/// skipped because the frontier emptied report 0.0 seconds — so the trace's
/// length always equals the plan's segment count, and the service records
/// each segment's route exactly once from it.
struct SegmentTiming {
  Route route = Route::kPfFrontier;
  double seconds = 0.0;
};
using ExecTrace = std::vector<SegmentTiming>;

/// Runs a staged plan (plan.staged must be true) from `ctx`. Thread-safe:
/// all scratch state is local to the call; the plan is only read. When
/// `trace` is non-null, per-segment timings are appended to it. `opts`
/// controls intra-query parallelism (default: sequential); `stats`, when
/// non-null, receives one parallel/sequential/skipped increment per
/// segment. Answers are byte-identical across every (workers, thresholds)
/// setting — parallelism never changes the value, only the wall-clock.
Result<eval::Value> ExecuteStaged(const xml::Document& doc,
                                  const Physical& plan,
                                  const eval::Context& ctx,
                                  ExecTrace* trace = nullptr,
                                  const ExecOptions& opts = {},
                                  ExecStats* stats = nullptr);

}  // namespace gkx::plan

#endif  // GKX_PLAN_EXEC_HPP_
