// The paper's fragment taxonomy (Figure 1) as a syntactic classifier:
//
//   PF            Def §4: location paths only, no conditions       NL-complete
//   pos. Core     Def 2.5 minus not()                              LOGCFL-complete
//   Core XPath    Def 2.5                                          P-complete
//   pWF           Def 5.1 (WF minus not(), minus iterated
//                 predicates, bounded arithmetic nesting)          LOGCFL-complete
//   WF            Def 2.6 (Wadler fragment)                        P-complete
//   pXPath        Def 6.1 (full XPath minus the analogous
//                 restrictions)                                    LOGCFL-complete
//   XPath         everything parsed                                P-complete
//
// Membership is syntactic. Remark 5.2's observation — positive Core XPath
// with iterated predicates is *semantically* in pWF — is available through
// the NormalizeIteratedPredicates transform (transform.hpp).

#ifndef GKX_XPATH_FRAGMENT_HPP_
#define GKX_XPATH_FRAGMENT_HPP_

#include <string>
#include <string_view>
#include <vector>

#include "xpath/analysis.hpp"
#include "xpath/ast.hpp"

namespace gkx::xpath {

enum class Fragment {
  kPF,
  kPositiveCore,
  kCore,
  kPWF,
  kWF,
  kPXPath,
  kFullXPath,
};

std::string_view FragmentName(Fragment fragment);

/// Combined-complexity verdict for a fragment, per Figure 1.
std::string_view FragmentComplexity(Fragment fragment);

struct ClassifyOptions {
  /// The constant K bounding arithmetic nesting (pWF/pXPath restriction) and
  /// concat nesting/arity (pXPath restriction 4).
  int nesting_bound = 8;
};

struct FragmentReport {
  bool in_pf = false;
  bool in_positive_core = false;
  bool in_core = false;
  bool in_pwf = false;
  bool in_wf = false;
  bool in_pxpath = false;
  // in full XPath by construction (it parsed).

  /// The smallest fragment containing the query (priority: PF, posCore, pWF,
  /// Core, WF, pXPath, XPath).
  Fragment smallest = Fragment::kFullXPath;

  /// Human-readable exclusion reasons, one per fragment boundary crossed.
  std::vector<std::string> notes;

  bool Contains(Fragment fragment) const;
};

/// Classification of a single predicate subtree — the bexpr grammar slot of
/// the fragment definitions, as opposed to a whole query. The plan layer
/// classifies every step's predicates through this to decide which engine a
/// subexpression can soundly run on (Core bexprs are evaluable set-at-a-time
/// as condition sets; anything else needs per-context evaluation).
struct ConditionReport {
  bool in_core = false;  // Core XPath bexpr (Def 2.5): and/or/not over paths
  std::string note;      // first reason it exceeds Core ("" when in_core)
};

/// Classifies `expr` as it appears in predicate position, reading the
/// query's analysis (ExprTraits::core_condition), so classifying every
/// predicate of a query stays O(|Q|).
ConditionReport ClassifyCondition(const Expr& expr,
                                  const QueryAnalysis& analysis);

/// Classifies a query. Uses a fresh Analyze() pass.
FragmentReport Classify(const Query& query, const ClassifyOptions& options = {});

/// Classifies with a precomputed analysis (must belong to the same query).
FragmentReport Classify(const Query& query, const QueryAnalysis& analysis,
                        const ClassifyOptions& options = {});

}  // namespace gkx::xpath

#endif  // GKX_XPATH_FRAGMENT_HPP_
