// The staged query-plan IR. Compilation is a two-stage pipeline:
//
//   parse  ──► Normalize ──► Lower ──► (execute)
//              (Normalized)  (Physical)
//
// Normalize lowers the parsed AST into the plan's normal form: the
// semantics-preserving canonical rewrites (xpath::Optimize) plus the
// canonical spelling that the PlanCache keys equivalence classes by — one
// normal form shared by cache aliasing and planning.
//
// Lower (physical.hpp) applies the paper's Figure 1 taxonomy *per location
// step* instead of per query, reading each predicate's
// ExprTraits::core_condition from the query's analysis: a predicate-free
// step runs on the NL frontier sweep, a step whose predicates are all Core
// bexprs on the O(|D|·|Q|) condition-set engine, anything else on the
// polynomial context-value tables. This is what lets a mixed query keep its
// path spine on the bitset fast path and drop into CVT only for the
// offending predicate subtree (see physical.hpp / exec.hpp).

#ifndef GKX_PLAN_IR_HPP_
#define GKX_PLAN_IR_HPP_

#include <string>
#include <string_view>

#include "xpath/ast.hpp"

namespace gkx::plan {

/// Which engine a step (or a plan segment) is routed to.
enum class Route { kPfFrontier, kCoreLinear, kCvt };

/// Route label ("pf-frontier", "core-linear", "cvt") — the one spelling of
/// every served label: the tokens of a plan's evaluator string, the
/// routes.<route> histograms and the slow-query log's route lists.
std::string_view RouteName(Route route);

/// A normalized (canonical-rewritten) query and its canonical spelling,
/// the PlanCache alias key.
struct Normalized {
  xpath::Query query;
  std::string canonical_text;
};

/// Stage 1: canonical rewrites + canonical spelling. Idempotent — feeding
/// the canonical text back through parse+Normalize reproduces itself.
Normalized Normalize(xpath::Query parsed);

}  // namespace gkx::plan

#endif  // GKX_PLAN_IR_HPP_
