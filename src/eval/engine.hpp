// The user-facing facade over the staged compile pipeline (src/plan):
//   normalize (canonical rewrites) → classify per subexpression (Figure 1,
//   per step) → lower (fused segments) → execute.
// Every step is routed to the cheapest sound engine —
//   predicate-free (PF, NL)               -> pf-frontier bitset sweeps
//   Core XPath predicates                 -> core-linear, O(|D|·|Q|)
//   anything else                         -> context-value tables, polynomial
// — and every plan runs through the one executor (plan::ExecuteStaged) on
// this Engine's two evaluators: the path spine stays on the bitset fast
// path, only non-Core predicate subtrees drop into CVT, and a scalar root
// runs whole on CVT. Answer.evaluator reports the plan's route list, e.g.
// "pf-frontier", "core-linear", "cvt" or "pf-frontier+cvt".

#ifndef GKX_EVAL_ENGINE_HPP_
#define GKX_EVAL_ENGINE_HPP_

#include <memory>
#include <string>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/evaluator.hpp"
#include "plan/exec.hpp"
#include "plan/physical.hpp"
#include "xpath/fragment.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {

class Engine {
 public:
  struct Answer {
    Value value;
    xpath::FragmentReport fragment;
    std::string evaluator;  // route list that produced the value
  };

  /// A compiled query — the staged physical plan (see plan/physical.hpp).
  /// Plans are immutable after Compile and safe to share across threads.
  using Plan = plan::Physical;

  /// Parses, normalizes, classifies per subexpression, and lowers a query
  /// into a reusable Plan. Running a Plan via RunPlan gives answers
  /// value-identical to Run(doc, query_text).
  static Result<Plan> Compile(std::string_view query_text);

  /// Compiles an already-parsed query into a Plan (the query is moved in).
  static Plan CompileParsed(xpath::Query query);

  /// Runs a compiled plan from the root context.
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan) {
    return RunPlan(doc, plan, RootContext(doc));
  }

  /// Runs a compiled plan from a given context.
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan,
                         const Context& ctx) {
    return RunPlan(doc, plan, ctx, nullptr);
  }

  /// Same, with per-segment timing capture: when `trace` is non-null, one
  /// SegmentTiming per plan segment is appended (see plan/exec.hpp).
  Result<Answer> RunPlan(const xml::Document& doc, const Plan& plan,
                         const Context& ctx, plan::ExecTrace* trace);

  /// Parses, compiles, and runs a query from the root context.
  Result<Answer> Run(const xml::Document& doc, std::string_view query_text);

 private:
  // The executor's engines. An Engine lives across requests, so their binds
  // (test-set bitsets, context-value tables) stay warm for repeat
  // executions of the same plan on the same document.
  CoreLinearEvaluator linear_;
  CvtEvaluator cvt_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_ENGINE_HPP_
