#include "xpath/ast.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "xpath/analysis.hpp"

namespace gkx::xpath {
namespace {

struct AxisNameEntry {
  Axis axis;
  std::string_view name;
};

constexpr AxisNameEntry kAxisNames[] = {
    {Axis::kSelf, "self"},
    {Axis::kChild, "child"},
    {Axis::kParent, "parent"},
    {Axis::kDescendant, "descendant"},
    {Axis::kDescendantOrSelf, "descendant-or-self"},
    {Axis::kAncestor, "ancestor"},
    {Axis::kAncestorOrSelf, "ancestor-or-self"},
    {Axis::kFollowing, "following"},
    {Axis::kFollowingSibling, "following-sibling"},
    {Axis::kPreceding, "preceding"},
    {Axis::kPrecedingSibling, "preceding-sibling"},
};

struct FunctionNameEntry {
  Function function;
  std::string_view name;
};

constexpr FunctionNameEntry kFunctionNames[] = {
    {Function::kPosition, "position"},
    {Function::kLast, "last"},
    {Function::kNot, "not"},
    {Function::kTrue, "true"},
    {Function::kFalse, "false"},
    {Function::kBoolean, "boolean"},
    {Function::kNumber, "number"},
    {Function::kString, "string"},
    {Function::kCount, "count"},
    {Function::kSum, "sum"},
    {Function::kConcat, "concat"},
    {Function::kContains, "contains"},
    {Function::kStartsWith, "starts-with"},
    {Function::kStringLength, "string-length"},
    {Function::kNormalizeSpace, "normalize-space"},
    {Function::kSubstring, "substring"},
    {Function::kSubstringBefore, "substring-before"},
    {Function::kSubstringAfter, "substring-after"},
    {Function::kTranslate, "translate"},
    {Function::kFloor, "floor"},
    {Function::kCeiling, "ceiling"},
    {Function::kRound, "round"},
    {Function::kName, "name"},
    {Function::kLocalName, "local-name"},
};

}  // namespace

std::string_view AxisName(Axis axis) {
  for (const auto& entry : kAxisNames) {
    if (entry.axis == axis) return entry.name;
  }
  GKX_CHECK(false);
  return {};
}

bool AxisFromName(std::string_view name, Axis* out) {
  for (const auto& entry : kAxisNames) {
    if (entry.name == name) {
      *out = entry.axis;
      return true;
    }
  }
  return false;
}

bool IsReverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

std::string NodeTest::ToString() const {
  switch (kind) {
    case Kind::kName:
      return name;
    case Kind::kAny:
      return "*";
    case Kind::kNode:
      return "node()";
  }
  GKX_CHECK(false);
  return {};
}

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr: return "or";
    case BinaryOp::kAnd: return "and";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "div";
    case BinaryOp::kMod: return "mod";
  }
  GKX_CHECK(false);
  return {};
}

bool IsRelationalOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmeticOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

double ArithmeticOp(BinaryOp op, double lhs, double rhs) {
  switch (op) {
    case BinaryOp::kAdd: return lhs + rhs;
    case BinaryOp::kSub: return lhs - rhs;
    case BinaryOp::kMul: return lhs * rhs;
    case BinaryOp::kDiv: return lhs / rhs;
    case BinaryOp::kMod: return std::fmod(lhs, rhs);
    default:
      GKX_CHECK(false);
      return 0.0;
  }
}

bool CompareNumbers(BinaryOp op, double lhs, double rhs) {
  switch (op) {
    case BinaryOp::kEq: return lhs == rhs;
    case BinaryOp::kNe: return lhs != rhs;
    case BinaryOp::kLt: return lhs < rhs;
    case BinaryOp::kLe: return lhs <= rhs;
    case BinaryOp::kGt: return lhs > rhs;
    case BinaryOp::kGe: return lhs >= rhs;
    default:
      GKX_CHECK(false);
      return false;
  }
}

std::string_view FunctionName(Function function) {
  for (const auto& entry : kFunctionNames) {
    if (entry.function == function) return entry.name;
  }
  GKX_CHECK(false);
  return {};
}

bool FunctionFromName(std::string_view name, Function* out) {
  for (const auto& entry : kFunctionNames) {
    if (entry.name == name) {
      *out = entry.function;
      return true;
    }
  }
  return false;
}

std::string_view ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNodeSet: return "node-set";
    case ValueType::kBoolean: return "boolean";
    case ValueType::kNumber: return "number";
    case ValueType::kString: return "string";
  }
  GKX_CHECK(false);
  return {};
}

ValueType StaticType(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
      return ValueType::kNumber;
    case Expr::Kind::kStringLiteral:
      return ValueType::kString;
    case Expr::Kind::kPath:
    case Expr::Kind::kUnion:
      return ValueType::kNodeSet;
    case Expr::Kind::kNegate:
      return ValueType::kNumber;
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      if (IsArithmeticOp(binary.op())) return ValueType::kNumber;
      return ValueType::kBoolean;  // and/or/relops
    }
    case Expr::Kind::kFunctionCall: {
      switch (expr.As<FunctionCall>().function()) {
        case Function::kPosition:
        case Function::kLast:
        case Function::kNumber:
        case Function::kCount:
        case Function::kSum:
        case Function::kStringLength:
        case Function::kFloor:
        case Function::kCeiling:
        case Function::kRound:
          return ValueType::kNumber;
        case Function::kNot:
        case Function::kTrue:
        case Function::kFalse:
        case Function::kBoolean:
        case Function::kContains:
        case Function::kStartsWith:
          return ValueType::kBoolean;
        case Function::kString:
        case Function::kConcat:
        case Function::kNormalizeSpace:
        case Function::kSubstring:
        case Function::kSubstringBefore:
        case Function::kSubstringAfter:
        case Function::kTranslate:
        case Function::kName:
        case Function::kLocalName:
          return ValueType::kString;
      }
      GKX_CHECK(false);
      return ValueType::kBoolean;
    }
  }
  GKX_CHECK(false);
  return ValueType::kBoolean;
}

void PositionBlock::Truths(const Expr& expr, bool predicate, double first,
                           int count, double size, uint8_t* truth) {
  GKX_CHECK(count >= 0 && count <= kLanes);
  first_ = first;
  count_ = count;
  size_ = size;
  if (StaticType(expr) == ValueType::kBoolean) {
    Booleans(expr, 0, truth);
    return;
  }
  double* const numbers = At(0).lhs;
  Numbers(expr, 1, numbers);
  for (int i = 0; i < count; ++i) {
    truth[i] = predicate ? numbers[i] == first + i
                         : numbers[i] != 0.0 && !std::isnan(numbers[i]);
  }
}

PositionBlock::Level& PositionBlock::At(size_t depth) {
  while (levels_.size() <= depth) levels_.push_back(std::make_unique<Level>());
  return *levels_[depth];
}

// Each operator writes its block into `out` and keeps its operands' blocks
// at its own level; its operands evaluate one level deeper.
void PositionBlock::Numbers(const Expr& expr, size_t depth, double* out) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
      std::fill(out, out + count_, expr.As<NumberLiteral>().value());
      return;
    case Expr::Kind::kNegate:
      Numbers(expr.As<NegateExpr>().operand(), depth, out);
      for (int i = 0; i < count_; ++i) out[i] = -out[i];
      return;
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      Numbers(binary.lhs(), depth + 1, out);
      double* const rhs = At(depth).rhs;
      Numbers(binary.rhs(), depth + 1, rhs);
      for (int i = 0; i < count_; ++i) {
        out[i] = ArithmeticOp(binary.op(), out[i], rhs[i]);
      }
      return;
    }
    case Expr::Kind::kFunctionCall:
      switch (expr.As<FunctionCall>().function()) {
        case Function::kPosition:
          for (int i = 0; i < count_; ++i) out[i] = first_ + i;
          return;
        case Function::kLast:
          std::fill(out, out + count_, size_);
          return;
        default:
          break;
      }
      break;
    default:
      break;
  }
  GKX_CHECK(false);  // not a number-typed position test
}

void PositionBlock::Booleans(const Expr& expr, size_t depth, uint8_t* out) {
  switch (expr.kind()) {
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      Level& level = At(depth);
      if (binary.op() == BinaryOp::kAnd || binary.op() == BinaryOp::kOr) {
        Booleans(binary.lhs(), depth + 1, out);
        Booleans(binary.rhs(), depth + 1, level.truth);
        const bool is_and = binary.op() == BinaryOp::kAnd;
        for (int i = 0; i < count_; ++i) {
          out[i] = is_and ? out[i] & level.truth[i] : out[i] | level.truth[i];
        }
        return;
      }
      Numbers(binary.lhs(), depth + 1, level.lhs);
      Numbers(binary.rhs(), depth + 1, level.rhs);
      for (int i = 0; i < count_; ++i) {
        out[i] = CompareNumbers(binary.op(), level.lhs[i], level.rhs[i]);
      }
      return;
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      switch (call.function()) {
        case Function::kTrue:
        case Function::kFalse:
          std::fill(out, out + count_, call.function() == Function::kTrue);
          return;
        case Function::kNot:
          Booleans(call.arg(0), depth, out);
          for (int i = 0; i < count_; ++i) out[i] = !out[i];
          return;
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  GKX_CHECK(false);  // not a boolean-typed position test
}

Query Query::Create(ExprPtr root) {
  GKX_CHECK(root != nullptr);
  Query query;
  query.root_ = std::move(root);
  query.Index(query.root_.get());
  query.analysis_ = std::make_unique<const QueryAnalysis>(Analyze(query));
  return query;
}

Query::Query(Query&&) noexcept = default;
Query& Query::operator=(Query&&) noexcept = default;
Query::~Query() = default;

void Query::Index(Expr* expr) {
  expr->id_ = static_cast<int>(exprs_.size());
  exprs_.push_back(expr);
  switch (expr->kind()) {
    case Expr::Kind::kNumberLiteral:
    case Expr::Kind::kStringLiteral:
      break;
    case Expr::Kind::kBinary: {
      auto* binary = static_cast<BinaryExpr*>(expr);
      Index(const_cast<Expr*>(&binary->lhs()));
      Index(const_cast<Expr*>(&binary->rhs()));
      break;
    }
    case Expr::Kind::kNegate: {
      auto* negate = static_cast<NegateExpr*>(expr);
      Index(const_cast<Expr*>(&negate->operand()));
      break;
    }
    case Expr::Kind::kFunctionCall: {
      auto* call = static_cast<FunctionCall*>(expr);
      for (size_t i = 0; i < call->arg_count(); ++i) {
        Index(const_cast<Expr*>(&call->arg(i)));
      }
      break;
    }
    case Expr::Kind::kPath: {
      auto* path = static_cast<PathExpr*>(expr);
      for (Step& step : path->steps_) {
        step.id = static_cast<int>(steps_.size());
        steps_.push_back(&step);
        for (ExprPtr& predicate : step.predicates) {
          Index(predicate.get());
        }
      }
      break;
    }
    case Expr::Kind::kUnion: {
      auto* u = static_cast<UnionExpr*>(expr);
      for (size_t i = 0; i < u->branch_count(); ++i) {
        Index(const_cast<Expr*>(&u->branch(i)));
      }
      break;
    }
  }
}

}  // namespace gkx::xpath
