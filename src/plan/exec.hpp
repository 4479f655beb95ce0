// Execution of a Physical plan (the last stage of the pipeline in ir.hpp) —
// the one executor every plan runs on. Bitset segments run as frontier
// sweeps on a CoreLinearEvaluator; cvt segments run per origin node through a
// CvtEvaluator bound to the plan's query (so predicate memoization is
// shared across origins and segments); the materialization boundaries
// convert NodeBitset ⇄ document-order NodeSet exactly at segment seams. A
// scalar root runs whole on the CvtEvaluator. Wherever cvt tests a Core
// condition in a boolean position, it reads one bit of the linear engine's
// condition set for it (cvt_evaluator.hpp). Answers are byte-identical to
// the naive oracle — the evaluator-agreement and soak suites pin this.

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

/// Wall-clock of one executed segment. When a trace is requested, EVERY
/// segment of every branch gets exactly one entry in plan order — segments
/// skipped because the frontier emptied are marked `skipped` and report 0.0
/// seconds — so the trace's length always equals the plan's segment count
/// (one cvt entry for a scalar root), and the service records each
/// segment's route exactly once from it.
struct SegmentTiming {
  Route route = Route::kPfFrontier;
  double seconds = 0.0;
  bool skipped = false;
};
using ExecTrace = std::vector<SegmentTiming>;

/// Runs `plan` from `ctx` on the calling thread, on the caller's engines.
/// The run binds them afresh: `linear` first, and `cvt` at the first cvt
/// segment that runs, so their test sets, condition sets and context-value
/// tables last this run only. For the length of the call `cvt` reads
/// `linear`'s condition sets. The plan is only read; the engines must not
/// be shared with a concurrent call. When `trace` is non-null, per-segment
/// timings are appended to it.
Result<eval::Value> ExecuteStaged(const xml::Document& doc,
                                  const Physical& plan,
                                  const eval::Context& ctx,
                                  eval::CoreLinearEvaluator* linear,
                                  eval::CvtEvaluator* cvt,
                                  ExecTrace* trace = nullptr);

}  // namespace gkx::plan

#endif  // GKX_PLAN_EXEC_HPP_
