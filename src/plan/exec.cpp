#include "plan/exec.hpp"

#include <utility>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/node_set.hpp"
#include "obs/trace.hpp"

namespace gkx::plan {

using eval::NodeBitset;
using eval::NodeSet;
using eval::Value;

namespace {

/// One staged-path execution. By default the run owns private engine
/// instances (concurrent executions never share scratch state), bound once
/// so memo tables persist across segments of the same run; a caller with a
/// long-lived engine passes its evaluators via ExecOptions and keeps those
/// binds warm ACROSS runs of the same (document, plan).
class StagedRun {
 public:
  StagedRun(const xml::Document& doc, const Physical& plan,
            const ExecOptions& opts)
      : doc_(doc),
        plan_(plan),
        linear_(opts.linear != nullptr ? *opts.linear : own_linear_),
        cvt_(opts.cvt != nullptr ? *opts.cvt : own_cvt_) {
    linear_.Bind(doc);
  }

  Status BindCvt() { return cvt_.Bind(doc_, plan_.query); }

  Result<NodeBitset> RunBranch(const BranchProgram& branch,
                               const eval::Context& ctx, ExecTrace* trace) {
    NodeBitset frontier(doc_.size());
    frontier.Set(branch.path->absolute() ? doc_.root() : ctx.node);
    for (const Segment& segment : branch.segments) {
      if (frontier.Empty()) {
        if (trace == nullptr) break;
        // Traced runs report every segment, so the trace length always
        // equals the plan's segment count.
        trace->push_back({segment.route, 0.0, /*skipped=*/true});
        continue;
      }
      const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
      switch (segment.route) {
        case Route::kPfFrontier:
        case Route::kCoreLinear: {
          // Bitset-native: frontier sweeps (a predicate-free step and a
          // Core-condition step differ only in the condition intersection).
          auto swept = linear_.EvalStepRange(
              *branch.path, static_cast<size_t>(segment.step_begin),
              static_cast<size_t>(segment.step_end), frontier);
          if (!swept.ok()) return swept.status();
          frontier = *std::move(swept);
          break;
        }
        case Route::kCvt: {
          // Materialization boundary: bitset -> document-order node set,
          // per-origin step application on the CVT engine, and back.
          NodeSet current = frontier.ToNodeSet();
          for (int s = segment.step_begin;
               s < segment.step_end && !current.empty(); ++s) {
            const xpath::Step& step =
                branch.path->step(static_cast<size_t>(s));
            NodeSet next;
            for (xml::NodeId origin : current) {
              GKX_RETURN_IF_ERROR(cvt_.ApplyBoundStep(step, origin, &next));
            }
            eval::SortUnique(&next);
            current = std::move(next);
          }
          frontier = NodeBitset::FromNodeSet(current, doc_.size());
          break;
        }
      }
      if (trace != nullptr) {
        trace->push_back(
            {segment.route, static_cast<double>(obs::NowNs() - t0) * 1e-9});
      }
    }
    return frontier;
  }

 private:
  const xml::Document& doc_;
  const Physical& plan_;
  // Fallback engines when the caller didn't lend long-lived ones; the
  // references (declared after, so they initialize after) select between
  // the owned and the lent instances.
  eval::CoreLinearEvaluator own_linear_;
  eval::CvtEvaluator own_cvt_;
  eval::CoreLinearEvaluator& linear_;
  eval::CvtEvaluator& cvt_;
};

}  // namespace

Result<Value> ExecuteStaged(const xml::Document& doc, const Physical& plan,
                            const eval::Context& ctx, ExecTrace* trace,
                            const ExecOptions& opts) {
  GKX_CHECK(plan.staged);
  if (doc.empty()) return InvalidArgumentError("empty document");
  StagedRun run(doc, plan, opts);
  GKX_RETURN_IF_ERROR(run.BindCvt());
  NodeBitset merged(doc.size());
  for (const BranchProgram& branch : plan.branches) {
    auto result = run.RunBranch(branch, ctx, trace);
    if (!result.ok()) return result.status();
    merged |= *result;
  }
  return Value::Nodes(merged.ToNodeSet());
}

}  // namespace gkx::plan
