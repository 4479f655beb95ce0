// Static analysis over a Query: per-expression context dependence (what the
// context-value-table evaluator keys its tables on) and the global syntactic
// measures that the fragment definitions of the paper regulate (Defs 2.5,
// 2.6, 5.1, 6.1). Query::Create runs it once per query; every consumer reads
// Query::analysis().

#ifndef GKX_XPATH_ANALYSIS_HPP_
#define GKX_XPATH_ANALYSIS_HPP_

#include <array>
#include <set>
#include <vector>

#include "xpath/ast.hpp"

namespace gkx::xpath {

/// What part of the evaluation context ⟨node, position, size⟩ an
/// expression's value depends on.
enum class ContextDependence {
  kNone,  // constant (literals, absolute paths, true(), ...)
  kNode,  // depends on the context node only (all relative paths, ...)
  kFull,  // uses position() and/or last() free of any step rebinding
};

/// Per-expression traits, indexed by Expr::id().
struct ExprTraits {
  ContextDependence dependence = ContextDependence::kNone;
  ValueType type = ValueType::kBoolean;
  bool uses_position = false;  // free position() occurrence
  bool uses_last = false;      // free last() occurrence
  // A Core XPath bexpr (Def 2.5): and/or/not() over location paths (and
  // unions of them) whose predicates are all bexprs. Evaluable
  // set-at-a-time as a condition set (CoreLinearEvaluator).
  bool core_condition = false;
  // A position test: built only from number literals, position(), last(),
  // unary minus, arithmetic on numbers, comparisons of two numbers,
  // true()/false(), and and/or/not() over booleans. Its value is a function
  // of the context's position and size alone (PositionNumber /
  // PositionBoolean in ast.hpp); one that reads neither is a constant,
  // which Optimize folds.
  bool position_test = false;
};

/// Whole-query syntactic measures.
struct QueryAnalysis {
  std::vector<ExprTraits> expr_traits;

  int size = 0;                     // |Q| = expr nodes + steps
  int max_predicates_per_step = 0;  // k of the longest χ::t[e1]...[ek]
  int max_not_depth = 0;            // nesting depth of not()
  int max_arith_depth = 0;          // nesting of arithmetic ops / unary minus
  int max_concat_depth = 0;
  int max_concat_arity = 0;

  std::array<bool, kNumAxes> axes_used = {};
  std::set<Function> functions_used;

  bool has_predicates = false;
  bool has_negation = false;         // any not()
  bool has_union = false;
  bool has_string_literal = false;
  bool has_number_literal = false;
  bool has_arithmetic = false;
  bool has_relop = false;
  bool relop_with_boolean_operand = false;     // pXPath restriction 3
  bool relop_with_nonnumber_operand = false;   // WF requires nexpr RelOp nexpr
  bool has_position_or_last = false;

  const ExprTraits& traits(const Expr& expr) const {
    GKX_CHECK(expr.id() >= 0 &&
              expr.id() < static_cast<int>(expr_traits.size()));
    return expr_traits[static_cast<size_t>(expr.id())];
  }
};

/// Analyzes a query (linear in |Q|). Query::Create is the one caller; read
/// the result through Query::analysis().
QueryAnalysis Analyze(const Query& query);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_ANALYSIS_HPP_
