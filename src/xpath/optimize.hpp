// Semantics-preserving query simplification — the standard rewrite layer of
// an XPath engine. Everything here is justified by the axis algebra the
// metamorphic test suite checks:
//
//   * step fusion:   descendant-or-self::node()/child::t[P]
//                      -> descendant::t[P]          (the '//' idiom)
//                    descendant-or-self::node()/descendant::t[P]
//                      -> descendant::t[P]
//                    self::node()                   -> dropped (when another
//                                                      step remains)
//   * trivial predicates dropped: [position() >= 1], [position() <= last()]
//   * constant predicates folded: a boolean position test (number
//                    literals, unary minus, arithmetic, number comparisons,
//                    and/or/not() and true()/false(); ExprTraits::
//                    position_test) that reads neither position() nor
//                    last() has one value at every context; true drops it
//                    ([true()], [2 <= 4]), false makes it [false()]. A
//                    constant number ([2 + 1]) is a position test and
//                    stays, and so does a constant inside a larger
//                    predicate.
//   * empty-union collapse: single-branch unions unwrapped.
//
// Fusions are suppressed where positions are observable (a predicate on the
// fused step that uses position()/last() or a numeric predicate counts
// against the *merged* candidate list, which would change meaning).

#ifndef GKX_XPATH_OPTIMIZE_HPP_
#define GKX_XPATH_OPTIMIZE_HPP_

#include "xpath/ast.hpp"

namespace gkx::xpath {

struct OptimizeStats {
  int fused_steps = 0;
  int dropped_self_steps = 0;
  int dropped_predicates = 0;
  int folded_predicates = 0;  // constant false rewritten to false()
  int unwrapped_unions = 0;

  int Total() const {
    return fused_steps + dropped_self_steps + dropped_predicates +
           folded_predicates + unwrapped_unions;
  }
};

/// Returns an equivalent, usually smaller query. `stats` (optional)
/// receives rewrite counts.
Query Optimize(const Query& query, OptimizeStats* stats = nullptr);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_OPTIMIZE_HPP_
