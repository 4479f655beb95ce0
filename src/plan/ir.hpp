// The staged query-plan IR. Compilation is a three-stage pipeline:
//
//   parse  ──► Normalize ──► ClassifyOps ──► Lower ──► (execute)
//              (Logical)     (per-op routes)  (Physical)
//
// Normalize lowers the parsed AST into the plan's logical form: the
// semantics-preserving canonical rewrites (xpath::Optimize) plus the
// canonical spelling that the PlanCache keys equivalence classes by — one
// normal form shared by cache aliasing and planning.
//
// ClassifyOps applies the paper's Figure 1 taxonomy *per subexpression*
// instead of per query: every location step is annotated with the cheapest
// sound engine for it (predicate-free → the NL frontier sweep; Core-bexpr
// predicates → the O(|D|·|Q|) condition-set engine; anything else → the
// polynomial context-value tables). This is what lets a mixed query keep
// its path spine on the bitset fast path and drop into CVT only for the
// offending predicate subtree (see physical.hpp / exec.hpp).

#ifndef GKX_PLAN_IR_HPP_
#define GKX_PLAN_IR_HPP_

#include <string>
#include <string_view>
#include <vector>

#include "xpath/ast.hpp"
#include "xpath/fragment.hpp"

namespace gkx::plan {

/// Which engine an op (or a plan segment) is routed to.
enum class Route { kPfFrontier, kCoreLinear, kCvt };

/// Route label ("pf-frontier", "core-linear", "cvt") — the one spelling of
/// every served label: the tokens of a plan's evaluator string, the
/// routes.<route> histograms and the slow-query log's route lists.
std::string_view RouteName(Route route);

/// Per-step annotation produced by ClassifyOps.
struct StepPlan {
  Route route = Route::kPfFrontier;
  bool core_predicates = true;  // every predicate is a Core bexpr (Def 2.5)
  std::string note;             // first reason a predicate exceeds Core
};

/// The logical plan: the normalized query plus (after ClassifyOps) the
/// per-subexpression fragment annotations.
struct Logical {
  xpath::Query query;          // normalized (canonical-rewritten) AST
  std::string canonical_text;  // canonical spelling == PlanCache alias key

  bool classified = false;
  xpath::FragmentReport fragment;  // whole-query report (normalized form)
  std::vector<StepPlan> steps;     // indexed by Step::id (includes nested steps)
};

/// Stage 1: canonical rewrites + canonical spelling. Idempotent — feeding
/// the canonical text back through parse+Normalize reproduces itself.
Logical Normalize(xpath::Query parsed);

/// Stage 2: whole-query fragment report plus a per-step engine annotation
/// for every step id of the query (top-level and nested alike).
void ClassifyOps(Logical* logical,
                 const xpath::ClassifyOptions& options = {});

}  // namespace gkx::plan

#endif  // GKX_PLAN_IR_HPP_
