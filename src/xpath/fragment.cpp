#include "xpath/fragment.hpp"

#include <optional>

#include "xpath/analysis.hpp"

namespace gkx::xpath {
namespace {

bool IsPredicateFreePath(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      for (size_t i = 0; i < path.step_count(); ++i) {
        if (!path.step(i).predicates.empty()) return false;
      }
      return true;
    }
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        if (!IsPredicateFreePath(u.branch(i))) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool IsWfNumber(const Expr& expr);
bool IsWfPath(const Expr& expr);

/// WF "bexpr" (Def 2.6): and/or/not over bexprs, a location path, or
/// nexpr RelOp nexpr.
bool IsWfCondition(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      if (binary.op() == BinaryOp::kAnd || binary.op() == BinaryOp::kOr) {
        return IsWfCondition(binary.lhs()) && IsWfCondition(binary.rhs());
      }
      if (IsRelationalOp(binary.op())) {
        return IsWfNumber(binary.lhs()) && IsWfNumber(binary.rhs());
      }
      return false;
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      return call.function() == Function::kNot && call.arg_count() == 1 &&
             IsWfCondition(call.arg(0));
    }
    case Expr::Kind::kPath:
    case Expr::Kind::kUnion:
      return IsWfPath(expr);
    default:
      return false;
  }
}

/// WF "nexpr": position() | last() | number | nexpr ArithOp nexpr.
bool IsWfNumber(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
      return true;
    case Expr::Kind::kNegate:
      return IsWfNumber(expr.As<NegateExpr>().operand());
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      return IsArithmeticOp(binary.op()) && IsWfNumber(binary.lhs()) &&
             IsWfNumber(binary.rhs());
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      return call.function() == Function::kPosition ||
             call.function() == Function::kLast;
    }
    default:
      return false;
  }
}

bool IsWfPath(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      for (size_t i = 0; i < path.step_count(); ++i) {
        for (const ExprPtr& predicate : path.step(i).predicates) {
          // Numeric predicates are accepted as the standard [n] ≡
          // [position() = n] desugaring of a bexpr.
          if (!IsWfCondition(*predicate) && !IsWfNumber(*predicate)) {
            return false;
          }
        }
      }
      return true;
    }
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        if (!IsWfPath(u.branch(i))) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

/// WF "expr" start production: locpath | bexpr | nexpr.
bool IsWfQuery(const Expr& expr) {
  return IsWfPath(expr) || IsWfCondition(expr) || IsWfNumber(expr);
}

/// The first function of the query that pXPath excludes, if any.
std::optional<Function> ForbiddenPXPathFunction(const QueryAnalysis& analysis) {
  static constexpr Function kForbidden[] = {
      Function::kNot,          Function::kCount,
      Function::kSum,          Function::kString,
      Function::kNumber,       Function::kLocalName,
      Function::kName,         Function::kStringLength,
      Function::kNormalizeSpace,
      // Def 6.1 restriction 2 names the functions above. It does not name
      // these four string manipulators, but they build new strings out of
      // document strings of unbounded size, as string() and
      // normalize-space() do, so the LOGCFL bound is not claimed for them
      // either. Excluding them can only report a query in a larger
      // fragment than it needs; it never changes an answer.
      Function::kSubstring,    Function::kSubstringBefore,
      Function::kSubstringAfter, Function::kTranslate,
  };
  for (Function f : kForbidden) {
    if (analysis.functions_used.count(f) > 0) return f;
  }
  return std::nullopt;
}

}  // namespace

std::string_view FragmentName(Fragment fragment) {
  switch (fragment) {
    case Fragment::kPF: return "PF";
    case Fragment::kPositiveCore: return "positive Core XPath";
    case Fragment::kCore: return "Core XPath";
    case Fragment::kPWF: return "pWF";
    case Fragment::kWF: return "WF";
    case Fragment::kPXPath: return "pXPath";
    case Fragment::kFullXPath: return "XPath";
  }
  GKX_CHECK(false);
  return {};
}

std::string_view FragmentComplexity(Fragment fragment) {
  switch (fragment) {
    case Fragment::kPF:
      return "NL-complete (Theorem 4.3)";
    case Fragment::kPositiveCore:
      return "LOGCFL-complete (Theorems 4.1/4.2)";
    case Fragment::kPWF:
      return "LOGCFL-complete (Theorem 5.5; hardness via pos. Core ⊆ pWF)";
    case Fragment::kPXPath:
      return "LOGCFL-complete (Theorem 6.2)";
    case Fragment::kCore:
      return "P-complete (Theorem 3.2)";
    case Fragment::kWF:
      return "P-complete (Core XPath ⊆ WF; membership by Prop 2.7)";
    case Fragment::kFullXPath:
      return "P-complete (Prop 2.7 + Theorem 3.2)";
  }
  GKX_CHECK(false);
  return {};
}

bool FragmentReport::Contains(Fragment fragment) const {
  switch (fragment) {
    case Fragment::kPF: return in_pf;
    case Fragment::kPositiveCore: return in_positive_core;
    case Fragment::kCore: return in_core;
    case Fragment::kPWF: return in_pwf;
    case Fragment::kWF: return in_wf;
    case Fragment::kPXPath: return in_pxpath;
    case Fragment::kFullXPath: return true;
  }
  GKX_CHECK(false);
  return false;
}

FragmentReport Classify(const Query& query, const ClassifyOptions& options) {
  const QueryAnalysis& analysis = query.analysis();
  FragmentReport report;
  const Expr& root = query.root();

  report.in_core = (root.kind() == Expr::Kind::kPath ||
                    root.kind() == Expr::Kind::kUnion) &&
                   analysis.traits(root).core_condition;
  report.in_positive_core = report.in_core && !analysis.has_negation;
  report.in_pf = report.in_positive_core && IsPredicateFreePath(root) &&
                 !analysis.has_predicates;
  report.in_wf = IsWfQuery(root);

  const bool nesting_ok = analysis.max_arith_depth <= options.nesting_bound;
  report.in_pwf = report.in_wf && !analysis.has_negation &&
                  analysis.max_predicates_per_step <= 1 && nesting_ok;
  report.in_pxpath = !ForbiddenPXPathFunction(analysis).has_value() &&
                     analysis.max_predicates_per_step <= 1 &&
                     !analysis.relop_with_boolean_operand && nesting_ok &&
                     analysis.max_concat_depth <= options.nesting_bound &&
                     analysis.max_concat_arity <= options.nesting_bound;

  if (report.in_pf) {
    report.smallest = Fragment::kPF;
  } else if (report.in_positive_core) {
    report.smallest = Fragment::kPositiveCore;
  } else if (report.in_pwf) {
    report.smallest = Fragment::kPWF;
  } else if (report.in_core) {
    report.smallest = Fragment::kCore;
  } else if (report.in_wf) {
    report.smallest = Fragment::kWF;
  } else if (report.in_pxpath) {
    report.smallest = Fragment::kPXPath;
  } else {
    report.smallest = Fragment::kFullXPath;
  }
  return report;
}

std::vector<std::string> ExplainFragments(const Query& query) {
  const ClassifyOptions options;
  const QueryAnalysis& analysis = query.analysis();
  const FragmentReport report = Classify(query, options);
  const bool nesting_ok = analysis.max_arith_depth <= options.nesting_bound;
  std::vector<std::string> notes;
  if (!report.in_pf && report.in_positive_core) {
    notes.push_back("not PF: uses conditions");
  }
  if (!report.in_positive_core && report.in_core) {
    notes.push_back("not positive Core XPath: uses not()");
  }
  if (!report.in_pwf && report.in_wf) {
    if (analysis.has_negation) {
      notes.push_back("not pWF: uses not() (Def 5.1 restriction 2)");
    }
    if (analysis.max_predicates_per_step > 1) {
      notes.push_back("not pWF: iterated predicates (Def 5.1 restriction 1)");
    }
    if (!nesting_ok) {
      notes.push_back(
          "not pWF: arithmetic nesting exceeds the bound (restriction 3)");
    }
  }
  if (!report.in_pxpath) {
    if (const std::optional<Function> forbidden =
            ForbiddenPXPathFunction(analysis)) {
      notes.push_back("not pXPath: uses " +
                      std::string(FunctionName(*forbidden)) +
                      "() (Def 6.1 restriction 2)");
    }
    if (analysis.max_predicates_per_step > 1) {
      notes.push_back(
          "not pXPath: iterated predicates (Def 6.1 restriction 1)");
    }
    if (analysis.relop_with_boolean_operand) {
      notes.push_back(
          "not pXPath: RelOp with a boolean operand (Def 6.1 restriction 3)");
    }
    if (!nesting_ok || analysis.max_concat_depth > options.nesting_bound ||
        analysis.max_concat_arity > options.nesting_bound) {
      notes.push_back(
          "not pXPath: arithmetic/concat nesting or arity exceeds the bound "
          "(Def 6.1 restriction 4)");
    }
  }
  return notes;
}

}  // namespace gkx::xpath
