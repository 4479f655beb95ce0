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

#include <vector>

#include "base/status.hpp"
#include "eval/context.hpp"
#include "eval/value.hpp"
#include "plan/physical.hpp"

namespace gkx::eval {
class CoreLinearEvaluator;
class CvtEvaluator;
}  // namespace gkx::eval

namespace gkx::plan {

/// Optional long-lived bound engines (the prepared-statement pattern).
/// When set, ExecuteStaged runs on these instead of run-private instances,
/// so the test-set bitsets and context-value tables persist across runs:
/// re-executing the same plan on the same document turns memo fills into
/// memo hits. The evaluators detect same-binding reuse by (address, serial)
/// identity — see base/identity.hpp — and rebuild automatically when the
/// document or plan actually changed, so answers are byte-identical to a
/// cold run. The caller must not share one evaluator across concurrent
/// ExecuteStaged calls (eval::Engine passes its own members; Engine is
/// single-threaded by contract).
struct ExecOptions {
  eval::CoreLinearEvaluator* linear = nullptr;
  eval::CvtEvaluator* cvt = nullptr;
};

/// Wall-clock of one executed segment. When a trace is requested, EVERY
/// segment of every branch gets exactly one entry in plan order — segments
/// skipped because the frontier emptied are marked `skipped` and report 0.0
/// seconds — so the trace's length always equals the plan's segment count,
/// and the service records each segment's route exactly once from it.
struct SegmentTiming {
  Route route = Route::kPfFrontier;
  double seconds = 0.0;
  bool skipped = false;
};
using ExecTrace = std::vector<SegmentTiming>;

/// Runs a staged plan (plan.staged must be true) from `ctx` on the calling
/// thread. Thread-safe unless `opts` lends evaluators: all scratch state is
/// local to the call; the plan is only read. When `trace` is non-null,
/// per-segment timings are appended to it.
Result<eval::Value> ExecuteStaged(const xml::Document& doc,
                                  const Physical& plan,
                                  const eval::Context& ctx,
                                  ExecTrace* trace = nullptr,
                                  const ExecOptions& opts = {});

}  // namespace gkx::plan

#endif  // GKX_PLAN_EXEC_HPP_
