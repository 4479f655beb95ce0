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
// Membership is syntactic, read from the query's analysis
// (Query::analysis()). Classify returns the membership flags, which plans
// and answers carry; ExplainFragments returns the reasons as prose, for
// people. Remark 5.2's observation — positive Core XPath with iterated
// predicates is *semantically* in pWF — is available through the
// NormalizeIteratedPredicates transform (transform.hpp).

#ifndef GKX_XPATH_FRAGMENT_HPP_
#define GKX_XPATH_FRAGMENT_HPP_

#include <string>
#include <string_view>
#include <vector>

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

  bool Contains(Fragment fragment) const;
};

/// Classifies a query.
FragmentReport Classify(const Query& query, const ClassifyOptions& options = {});

/// Why the query falls outside each next-smaller fragment under the
/// default ClassifyOptions: one line of prose per fragment boundary it
/// crosses, in Classify's order (PF, positive Core, pWF, pXPath), e.g.
/// "not PF: uses conditions".
std::vector<std::string> ExplainFragments(const Query& query);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_FRAGMENT_HPP_
