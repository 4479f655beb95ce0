#include "xpath/transform.hpp"

#include <utility>
#include <vector>

#include "xpath/analysis.hpp"
#include "xpath/build.hpp"

namespace gkx::xpath {
namespace {

// ---------------------------------------------------------------------------
// NormalizeIteratedPredicates
// ---------------------------------------------------------------------------

class Normalizer {
 public:
  explicit Normalizer(const QueryAnalysis& analysis) : analysis_(analysis) {}

  ExprPtr Rewrite(const Expr& expr) {
    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
      case Expr::Kind::kStringLiteral:
        return build::CloneExpr(expr);
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        return build::Binary(binary.op(), Rewrite(binary.lhs()),
                             Rewrite(binary.rhs()));
      }
      case Expr::Kind::kNegate:
        return build::Negate(Rewrite(expr.As<NegateExpr>().operand()));
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        std::vector<ExprPtr> args;
        args.reserve(call.arg_count());
        for (size_t i = 0; i < call.arg_count(); ++i) {
          args.push_back(Rewrite(call.arg(i)));
        }
        return build::Call(call.function(), std::move(args));
      }
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        std::vector<Step> steps;
        steps.reserve(path.step_count());
        for (size_t i = 0; i < path.step_count(); ++i) {
          steps.push_back(RewriteStep(path.step(i)));
        }
        return build::Path(path.absolute(), std::move(steps));
      }
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<UnionExpr>();
        std::vector<ExprPtr> branches;
        branches.reserve(u.branch_count());
        for (size_t i = 0; i < u.branch_count(); ++i) {
          branches.push_back(Rewrite(u.branch(i)));
        }
        return build::Union(std::move(branches));
      }
    }
    GKX_CHECK(false);
    return nullptr;
  }

 private:
  Step RewriteStep(const Step& step) {
    std::vector<ExprPtr> predicates;
    predicates.reserve(step.predicates.size());
    for (const ExprPtr& predicate : step.predicates) {
      predicates.push_back(Rewrite(*predicate));
    }
    // Folding [e1][e2]...[ek] into [e1 and ... and ek] is sound iff e2..ek do
    // not observe the re-ranked positions, i.e. use neither position() nor
    // last() (e1 may be positional — it sees the original ranking either
    // way). Numeric-valued predicates are implicit position tests ([2] means
    // [position()=2]) and would change meaning under the boolean coercion of
    // 'and', so they block folding wherever they occur.
    bool foldable = predicates.size() >= 2;
    for (size_t i = 0; i < step.predicates.size() && foldable; ++i) {
      const Expr& original = *step.predicates[i];
      const ExprTraits& traits = analysis_.traits(original);
      if (StaticType(original) == ValueType::kNumber) foldable = false;
      if ((traits.uses_position || traits.uses_last) && i > 0) foldable = false;
    }
    if (!foldable) {
      return build::MakeStep(step.axis, step.test, std::move(predicates));
    }
    ExprPtr folded = std::move(predicates[0]);
    for (size_t i = 1; i < predicates.size(); ++i) {
      folded = build::And(std::move(folded), std::move(predicates[i]));
    }
    std::vector<ExprPtr> single;
    single.push_back(std::move(folded));
    return build::MakeStep(step.axis, step.test, std::move(single));
  }

  const QueryAnalysis& analysis_;
};

// ---------------------------------------------------------------------------
// PushNegationsDown
// ---------------------------------------------------------------------------

BinaryOp FlipRelop(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return BinaryOp::kNe;
    case BinaryOp::kNe: return BinaryOp::kEq;
    case BinaryOp::kLt: return BinaryOp::kGe;
    case BinaryOp::kLe: return BinaryOp::kGt;
    case BinaryOp::kGt: return BinaryOp::kLe;
    case BinaryOp::kGe: return BinaryOp::kLt;
    default:
      GKX_CHECK(false);
      return op;
  }
}

ExprPtr RewriteNeg(const Expr& expr, bool negated);

/// Wraps an expression as a boolean (paths get boolean(), booleans pass
/// through) — needed when a double negation cancels over a node-set operand.
ExprPtr AsBoolean(ExprPtr expr) {
  if (StaticType(*expr) == ValueType::kBoolean) return expr;
  std::vector<ExprPtr> args;
  args.push_back(std::move(expr));
  return build::Call(Function::kBoolean, std::move(args));
}

ExprPtr RewriteNeg(const Expr& expr, bool negated) {
  if (!negated) {
    switch (expr.kind()) {
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        if (call.function() == Function::kNot && call.arg_count() == 1) {
          return RewriteNeg(call.arg(0), /*negated=*/true);
        }
        std::vector<ExprPtr> args;
        args.reserve(call.arg_count());
        for (size_t i = 0; i < call.arg_count(); ++i) {
          args.push_back(RewriteNeg(call.arg(i), false));
        }
        return build::Call(call.function(), std::move(args));
      }
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        return build::Binary(binary.op(), RewriteNeg(binary.lhs(), false),
                             RewriteNeg(binary.rhs(), false));
      }
      case Expr::Kind::kNegate:
        return build::Negate(RewriteNeg(expr.As<NegateExpr>().operand(), false));
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        std::vector<Step> steps;
        steps.reserve(path.step_count());
        for (size_t i = 0; i < path.step_count(); ++i) {
          const Step& step = path.step(i);
          std::vector<ExprPtr> predicates;
          predicates.reserve(step.predicates.size());
          for (const ExprPtr& predicate : step.predicates) {
            predicates.push_back(RewriteNeg(*predicate, false));
          }
          steps.push_back(
              build::MakeStep(step.axis, step.test, std::move(predicates)));
        }
        return build::Path(path.absolute(), std::move(steps));
      }
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<UnionExpr>();
        std::vector<ExprPtr> branches;
        branches.reserve(u.branch_count());
        for (size_t i = 0; i < u.branch_count(); ++i) {
          branches.push_back(RewriteNeg(u.branch(i), false));
        }
        return build::Union(std::move(branches));
      }
      default:
        return build::CloneExpr(expr);
    }
  }

  // Negated context.
  switch (expr.kind()) {
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      if (binary.op() == BinaryOp::kAnd) {
        return build::Or(RewriteNeg(binary.lhs(), true),
                         RewriteNeg(binary.rhs(), true));
      }
      if (binary.op() == BinaryOp::kOr) {
        return build::And(RewriteNeg(binary.lhs(), true),
                          RewriteNeg(binary.rhs(), true));
      }
      if (IsRelationalOp(binary.op()) &&
          StaticType(binary.lhs()) == ValueType::kNumber &&
          StaticType(binary.rhs()) == ValueType::kNumber) {
        // Number-number comparison: negate by flipping the operator
        // (Theorem 5.9: "= is replaced by !=, < is replaced by >=, etc.").
        return build::Binary(FlipRelop(binary.op()),
                             RewriteNeg(binary.lhs(), false),
                             RewriteNeg(binary.rhs(), false));
      }
      // Mixed-type comparison: negation cannot be pushed through (the
      // existential node-set semantics breaks the flip); keep not(...)
      // (handled by a dom-loop, Theorem 6.3).
      return build::Not(RewriteNeg(expr, false));
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      if (call.function() == Function::kNot && call.arg_count() == 1) {
        // not(not(e)) == boolean(e).
        return AsBoolean(RewriteNeg(call.arg(0), false));
      }
      if (call.function() == Function::kTrue) return build::Call(Function::kFalse);
      if (call.function() == Function::kFalse) return build::Call(Function::kTrue);
      if (call.function() == Function::kBoolean && call.arg_count() == 1) {
        return RewriteNeg(call.arg(0), true);
      }
      return build::Not(RewriteNeg(expr, false));
    }
    default:
      // not(π), not(number), not(literal): keep the not() in front.
      return build::Not(RewriteNeg(expr, false));
  }
}

}  // namespace

Query NormalizeIteratedPredicates(const Query& query) {
  Normalizer normalizer(query.analysis());
  return Query::Create(normalizer.Rewrite(query.root()));
}

Query PushNegationsDown(const Query& query) {
  return Query::Create(RewriteNeg(query.root(), /*negated=*/false));
}

}  // namespace gkx::xpath
