#include "plan/exec.hpp"

#include <utility>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/node_set.hpp"
#include "obs/trace.hpp"

namespace gkx::plan {

using eval::NodeBitset;
using eval::Value;

namespace {

double SecondsSince(uint64_t t0) {
  return static_cast<double>(obs::NowNs() - t0) * 1e-9;
}

/// One execution of a plan on the caller's engines. The linear engine is
/// bound up front, before any cvt evaluation, and the bind drops every test
/// and condition set of an earlier run. For the run, the cvt engine answers
/// Core conditions from the linear engine's condition sets, so a cvt
/// segment and a core-linear segment of one run share them. The cvt engine
/// is bound at the first cvt segment that runs, and that one bind serves
/// every later cvt segment of the run, so they share its memo tables.
class StagedRun {
 public:
  StagedRun(const xml::Document& doc, const Physical& plan,
            eval::CoreLinearEvaluator& linear, eval::CvtEvaluator& cvt)
      : doc_(doc), plan_(plan), linear_(linear), cvt_(cvt) {
    linear_.Bind(doc);
    cvt_.UseConditionSets(&linear_);
  }
  ~StagedRun() { cvt_.UseConditionSets(nullptr); }
  StagedRun(const StagedRun&) = delete;
  StagedRun& operator=(const StagedRun&) = delete;

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
          if (!cvt_bound_) {
            GKX_RETURN_IF_ERROR(cvt_.Bind(doc_, plan_.query));
            cvt_bound_ = true;
          }
          // Set-at-a-time, like the bitset segments: each step maps the
          // frontier to its image on the CVT engine.
          for (int s = segment.step_begin;
               s < segment.step_end && !frontier.Empty(); ++s) {
            auto image = cvt_.StepImage(
                branch.path->step(static_cast<size_t>(s)), frontier);
            if (!image.ok()) return image.status();
            frontier = *std::move(image);
          }
          break;
        }
      }
      if (trace != nullptr) trace->push_back({segment.route, SecondsSince(t0)});
    }
    return frontier;
  }

 private:
  const xml::Document& doc_;
  const Physical& plan_;
  eval::CoreLinearEvaluator& linear_;
  eval::CvtEvaluator& cvt_;
  bool cvt_bound_ = false;
};

}  // namespace

Result<Value> ExecuteStaged(const xml::Document& doc, const Physical& plan,
                            const eval::Context& ctx,
                            eval::CoreLinearEvaluator* linear,
                            eval::CvtEvaluator* cvt, ExecTrace* trace) {
  if (doc.empty()) return InvalidArgumentError("empty document");
  StagedRun run(doc, plan, *linear, *cvt);
  if (plan.branches.empty()) {
    // A scalar root has no path spine to sweep: it runs whole on cvt, as
    // the plan's one cvt segment, with the run's condition sets.
    const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
    auto value = cvt->Evaluate(doc, plan.query, ctx);
    if (trace != nullptr) trace->push_back({Route::kCvt, SecondsSince(t0)});
    return value;
  }
  // The first branch's frontier accumulates the union of the others.
  auto merged = run.RunBranch(plan.branches[0], ctx, trace);
  if (!merged.ok()) return merged.status();
  for (size_t i = 1; i < plan.branches.size(); ++i) {
    auto result = run.RunBranch(plan.branches[i], ctx, trace);
    if (!result.ok()) return result.status();
    *merged |= *result;
  }
  return Value::Nodes(merged->ToNodeSet());
}

}  // namespace gkx::plan
