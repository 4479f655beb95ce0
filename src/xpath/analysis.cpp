#include "xpath/analysis.hpp"

#include <algorithm>

namespace gkx::xpath {
namespace {

ContextDependence MaxDep(ContextDependence a, ContextDependence b) {
  return static_cast<ContextDependence>(
      std::max(static_cast<int>(a), static_cast<int>(b)));
}

class Analyzer {
 public:
  explicit Analyzer(const Query& query) : query_(query) {
    analysis_.expr_traits.resize(static_cast<size_t>(query.num_exprs()));
  }

  QueryAnalysis Run() {
    Visit(query_.root());
    analysis_.size = query_.size();
    return std::move(analysis_);
  }

 private:
  // Returns the traits of `expr`, filling analysis_ along the way.
  // `arith_depth` bookkeeping: depth of the arithmetic-operator chain ending
  // at this node (counted downward from the nearest non-arithmetic ancestor).
  ExprTraits Visit(const Expr& expr) {
    ExprTraits traits;
    traits.type = StaticType(expr);

    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
        analysis_.has_number_literal = true;
        break;
      case Expr::Kind::kStringLiteral:
        analysis_.has_string_literal = true;
        break;
      case Expr::Kind::kNegate: {
        analysis_.has_arithmetic = true;
        ExprTraits operand = Visit(expr.As<NegateExpr>().operand());
        traits = Merge(traits, operand);
        RecordArithDepth(expr);
        break;
      }
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        ExprTraits lhs = Visit(binary.lhs());
        ExprTraits rhs = Visit(binary.rhs());
        traits = Merge(Merge(traits, lhs), rhs);
        if (IsArithmeticOp(binary.op())) {
          analysis_.has_arithmetic = true;
          RecordArithDepth(expr);
        } else if (IsRelationalOp(binary.op())) {
          analysis_.has_relop = true;
          const ValueType lt = StaticType(binary.lhs());
          const ValueType rt = StaticType(binary.rhs());
          if (lt == ValueType::kBoolean || rt == ValueType::kBoolean) {
            analysis_.relop_with_boolean_operand = true;
          }
          if (lt != ValueType::kNumber || rt != ValueType::kNumber) {
            analysis_.relop_with_nonnumber_operand = true;
          }
        }
        break;
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        analysis_.functions_used.insert(call.function());
        for (size_t i = 0; i < call.arg_count(); ++i) {
          traits = Merge(traits, Visit(call.arg(i)));
        }
        switch (call.function()) {
          case Function::kPosition:
            traits.uses_position = true;
            traits.dependence = ContextDependence::kFull;
            analysis_.has_position_or_last = true;
            break;
          case Function::kLast:
            traits.uses_last = true;
            traits.dependence = ContextDependence::kFull;
            analysis_.has_position_or_last = true;
            break;
          case Function::kTrue:
          case Function::kFalse:
            break;
          case Function::kNot:
            analysis_.has_negation = true;
            break;
          case Function::kConcat:
            analysis_.max_concat_arity = std::max(
                analysis_.max_concat_arity, static_cast<int>(call.arg_count()));
            RecordConcatDepth(expr);
            break;
          case Function::kString:
          case Function::kNumber:
          case Function::kStringLength:
          case Function::kNormalizeSpace:
          case Function::kName:
          case Function::kLocalName:
            // Zero-argument forms read the context node.
            if (call.arg_count() == 0) {
              traits.dependence =
                  MaxDep(traits.dependence, ContextDependence::kNode);
            }
            break;
          default:
            break;
        }
        break;
      }
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        traits.dependence = path.absolute() ? ContextDependence::kNone
                                            : ContextDependence::kNode;
        for (size_t i = 0; i < path.step_count(); ++i) {
          const Step& step = path.step(i);
          analysis_.axes_used[static_cast<size_t>(step.axis)] = true;
          analysis_.max_predicates_per_step =
              std::max(analysis_.max_predicates_per_step,
                       static_cast<int>(step.predicates.size()));
          if (!step.predicates.empty()) analysis_.has_predicates = true;
          for (const ExprPtr& predicate : step.predicates) {
            // Steps rebind the context: position()/last() inside a predicate
            // do not leak out, and the predicate sees the step's own nodes.
            Visit(*predicate);
          }
        }
        break;
      }
      case Expr::Kind::kUnion: {
        analysis_.has_union = true;
        const auto& u = expr.As<UnionExpr>();
        for (size_t i = 0; i < u.branch_count(); ++i) {
          traits = Merge(traits, Visit(u.branch(i)));
        }
        break;
      }
    }

    traits.core_condition = IsCoreCondition(expr);
    traits.position_test = IsPositionTest(expr);
    analysis_.expr_traits[static_cast<size_t>(expr.id())] = traits;
    return traits;
  }

  /// The position-test grammar, one level deep like IsCoreCondition: a
  /// number literal, position(), last(), true() or false(); unary minus,
  /// arithmetic or a comparison over number-typed position tests; and/or or
  /// not() over boolean-typed ones.
  bool IsPositionTest(const Expr& expr) const {
    auto test_of = [this](const Expr& sub, ValueType type) {
      const ExprTraits& traits = analysis_.traits(sub);
      return traits.position_test && traits.type == type;
    };
    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
        return true;
      case Expr::Kind::kNegate:
        return test_of(expr.As<NegateExpr>().operand(), ValueType::kNumber);
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        const ValueType operands =
            binary.op() == BinaryOp::kAnd || binary.op() == BinaryOp::kOr
                ? ValueType::kBoolean
                : ValueType::kNumber;
        return test_of(binary.lhs(), operands) &&
               test_of(binary.rhs(), operands);
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        switch (call.function()) {
          case Function::kPosition:
          case Function::kLast:
          case Function::kTrue:
          case Function::kFalse:
            return true;
          case Function::kNot:
            return test_of(call.arg(0), ValueType::kBoolean);
          default:
            return false;
        }
      }
      default:
        return false;
    }
  }

  /// Def 2.5's bexpr rule, one level deep: `expr` is a Core condition iff
  /// it is and/or or not() over Core conditions, or a location path (or a
  /// union of paths) whose predicates are all Core conditions. Visit fills
  /// the children's traits first, so the whole query takes one O(|Q|) pass,
  /// not one classification per subexpression.
  bool IsCoreCondition(const Expr& expr) const {
    auto is_core = [this](const Expr& sub) {
      return analysis_.traits(sub).core_condition;
    };
    switch (expr.kind()) {
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        return (binary.op() == BinaryOp::kAnd ||
                binary.op() == BinaryOp::kOr) &&
               is_core(binary.lhs()) && is_core(binary.rhs());
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        return call.function() == Function::kNot && call.arg_count() == 1 &&
               is_core(call.arg(0));
      }
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        for (size_t i = 0; i < path.step_count(); ++i) {
          for (const ExprPtr& predicate : path.step(i).predicates) {
            if (!is_core(*predicate)) return false;
          }
        }
        return true;
      }
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<UnionExpr>();
        for (size_t i = 0; i < u.branch_count(); ++i) {
          const Expr& branch = u.branch(i);
          const bool path = branch.kind() == Expr::Kind::kPath ||
                            branch.kind() == Expr::Kind::kUnion;
          if (!path || !is_core(branch)) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  // Joins child context info into the parent's traits (type stays the
  // parent's own).
  static ExprTraits Merge(ExprTraits parent, const ExprTraits& child) {
    parent.dependence = MaxDep(parent.dependence, child.dependence);
    parent.uses_position |= child.uses_position;
    parent.uses_last |= child.uses_last;
    return parent;
  }

  void RecordArithDepth(const Expr& expr) {
    analysis_.max_arith_depth =
        std::max(analysis_.max_arith_depth, ArithDepth(expr));
  }

  // Depth of the arithmetic chain rooted at `expr` (1 for a lone operator).
  int ArithDepth(const Expr& expr) {
    switch (expr.kind()) {
      case Expr::Kind::kNegate:
        return 1 + ArithDepth(expr.As<NegateExpr>().operand());
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        if (!IsArithmeticOp(binary.op())) return 0;
        return 1 + std::max(ArithDepth(binary.lhs()), ArithDepth(binary.rhs()));
      }
      default:
        return 0;
    }
  }

  void RecordConcatDepth(const Expr& expr) {
    analysis_.max_concat_depth =
        std::max(analysis_.max_concat_depth, ConcatDepth(expr));
  }

  int ConcatDepth(const Expr& expr) {
    if (expr.kind() != Expr::Kind::kFunctionCall) return 0;
    const auto& call = expr.As<FunctionCall>();
    if (call.function() != Function::kConcat) return 0;
    int max_child = 0;
    for (size_t i = 0; i < call.arg_count(); ++i) {
      max_child = std::max(max_child, ConcatDepth(call.arg(i)));
    }
    return 1 + max_child;
  }

  const Query& query_;
  QueryAnalysis analysis_;
};

/// Computes not() nesting depth over the whole tree (crossing any construct,
/// per Theorem 5.9's "maximum depth of nested occurrences").
int NotDepth(const Expr& expr) {
  int self = 0;
  int children = 0;
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
    case Expr::Kind::kStringLiteral:
      return 0;
    case Expr::Kind::kNegate:
      return NotDepth(expr.As<NegateExpr>().operand());
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      return std::max(NotDepth(binary.lhs()), NotDepth(binary.rhs()));
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      for (size_t i = 0; i < call.arg_count(); ++i) {
        children = std::max(children, NotDepth(call.arg(i)));
      }
      if (call.function() == Function::kNot) self = 1;
      return self + children;
    }
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      for (size_t i = 0; i < path.step_count(); ++i) {
        for (const ExprPtr& predicate : path.step(i).predicates) {
          children = std::max(children, NotDepth(*predicate));
        }
      }
      return children;
    }
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        children = std::max(children, NotDepth(u.branch(i)));
      }
      return children;
    }
  }
  return 0;
}

}  // namespace

QueryAnalysis Analyze(const Query& query) {
  Analyzer analyzer(query);
  QueryAnalysis analysis = analyzer.Run();
  analysis.max_not_depth = NotDepth(query.root());
  return analysis;
}

}  // namespace gkx::xpath
