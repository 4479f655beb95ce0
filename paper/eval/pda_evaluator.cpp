#include "eval/pda_evaluator.hpp"

#include <string>
#include <utility>

#include "xpath/analysis.hpp"

namespace gkx::eval {

using xpath::BinaryOp;
using xpath::Expr;
using xpath::Function;
using xpath::FunctionCall;
using xpath::PathExpr;
using xpath::Step;
using xpath::UnionExpr;
using xpath::ValueType;

namespace {

uint64_t SuffixKey(int step_id, xml::NodeId n, xml::NodeId r) {
  GKX_CHECK(step_id >= 0 && step_id < (1 << 15));
  GKX_CHECK(n >= 0 && n < (1 << 24));
  GKX_CHECK(r >= 0 && r < (1 << 24));
  return (static_cast<uint64_t>(step_id) << 48) |
         (static_cast<uint64_t>(n) << 24) | static_cast<uint64_t>(r);
}

uint64_t ExistsKey(int expr_id, xml::NodeId n) {
  GKX_CHECK(expr_id >= 0 && expr_id < (1 << 24));
  GKX_CHECK(n >= 0 && n < (1 << 24));
  return (static_cast<uint64_t>(expr_id) << 24) | static_cast<uint64_t>(n);
}

/// Packs a context into a 64-bit memo key. Limits: |D| < 2^24 nodes and
/// positions/sizes < 2^20 (checked).
uint64_t PackContext(const Context& ctx) {
  GKX_CHECK(ctx.node >= 0 && ctx.node < (1 << 24));
  GKX_CHECK(ctx.position >= 0 && ctx.position < (1 << 20));
  GKX_CHECK(ctx.size >= 0 && ctx.size < (1 << 20));
  return (static_cast<uint64_t>(ctx.node) << 40) |
         (static_cast<uint64_t>(ctx.position) << 20) |
         static_cast<uint64_t>(ctx.size);
}

}  // namespace

Status PdaEvaluator::Bind(const xml::Document& doc, const xpath::Query& query) {
  if (doc.empty()) return InvalidArgumentError("empty document");
  doc_ = &doc;
  query_ = &query;
  const xpath::QueryAnalysis& analysis = query.analysis();
  if (analysis.max_not_depth > options_.max_not_depth) {
    return UnsupportedError(
        "pda: not() nesting depth " + std::to_string(analysis.max_not_depth) +
        " exceeds the configured bound " + std::to_string(options_.max_not_depth) +
        " (Theorem 5.9 requires bounded negation)");
  }
  if (analysis.max_predicates_per_step > 1) {
    return UnsupportedError(
        "pda: iterated predicates are outside pWF/pXPath (Def 5.1/6.1; their "
        "addition makes evaluation P-complete, Theorem 5.7)");
  }
  for (Function f : analysis.functions_used) {
    switch (f) {
      case Function::kPosition:
      case Function::kLast:
      case Function::kTrue:
      case Function::kFalse:
      case Function::kBoolean:
      case Function::kConcat:
      case Function::kContains:
      case Function::kStartsWith:
      case Function::kNot:  // depth-gated above
        break;
      default:
        return UnsupportedError(
            "pda: function " + std::string(FunctionName(f)) +
            "() is excluded from pWF/pXPath (Def 6.1 restriction 2)");
    }
  }
  if (analysis.relop_with_boolean_operand) {
    return UnsupportedError(
        "pda: RelOp with boolean operand encodes negation (Def 6.1 "
        "restriction 3)");
  }
  tests_.clear();
  tests_.reserve(static_cast<size_t>(query.num_steps()));
  for (int id = 0; id < query.num_steps(); ++id) {
    tests_.push_back(ResolvedTest::Resolve(doc, query.step(id).test));
  }
  stats_ = Table1Stats{};
  suffix_memo_.clear();
  exists_memo_.clear();
  boolean_memo_.assign(static_cast<size_t>(query.num_exprs()), {});
  return Status::Ok();
}

Result<Value> PdaEvaluator::Evaluate(const xml::Document& doc,
                                     const xpath::Query& query,
                                     const Context& ctx) {
  GKX_RETURN_IF_ERROR(Bind(doc, query));
  const Expr& root = query.root();
  switch (xpath::StaticType(root)) {
    case ValueType::kNodeSet: {
      // Theorem 5.5: node-set evaluation = Singleton-Success in a loop over
      // all candidate result nodes.
      NodeSet out;
      for (xml::NodeId v = 0; v < doc.size(); ++v) {
        auto in = CheckSingleton(root, ctx.node, v);
        if (!in.ok()) return in.status();
        if (*in) out.push_back(v);
      }
      return Value::Nodes(std::move(out));
    }
    case ValueType::kBoolean: {
      auto value = EvalBoolean(root, ctx);
      if (!value.ok()) return value.status();
      return Value::Boolean(*value);
    }
    case ValueType::kNumber:
    case ValueType::kString:
      return EvalScalar(root, ctx);
  }
  GKX_CHECK(false);
  return InternalError("unreachable");
}

Result<bool> PdaEvaluator::CheckCandidate(const xml::Document& doc,
                                          const xpath::Query& query,
                                          const Context& ctx,
                                          xml::NodeId candidate) {
  if (doc_ != &doc || query_ != &query) {
    GKX_RETURN_IF_ERROR(Bind(doc, query));
  }
  if (xpath::StaticType(query.root()) != ValueType::kNodeSet) {
    return InvalidArgumentError("CheckCandidate requires a node-set query");
  }
  return CheckSingleton(query.root(), ctx.node, candidate);
}

Result<bool> PdaEvaluator::CheckSingleton(const Expr& expr, xml::NodeId n,
                                          xml::NodeId r) {
  switch (expr.kind()) {
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        ++stats_.union_branch;
        auto in = CheckSingleton(u.branch(i), n, r);
        if (!in.ok()) return in;
        if (*in) return true;
      }
      return false;
    }
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      if (path.absolute()) {
        // Table 1 row "/π": context is replaced by the root.
        ++stats_.root_path;
        n = doc_->root();
      }
      if (path.step_count() == 0) return r == n;  // bare "/"
      return CheckPathSuffix(path, 0, n, r);
    }
    default:
      return UnsupportedError("pda: expected a location path");
  }
}

Result<bool> PdaEvaluator::CheckPathSuffix(const PathExpr& path,
                                           size_t step_index, xml::NodeId n,
                                           xml::NodeId r) {
  const Step& step = path.step(step_index);
  if (step_index + 1 == path.step_count()) {
    return CheckStepTo(step, n, r);
  }
  const uint64_t key = SuffixKey(step.id, n, r);
  auto memo = suffix_memo_.find(key);
  if (memo != suffix_memo_.end()) return memo->second;
  // Table 1 row "π1/π2": search the intermediate node m. Candidates are
  // exactly the axis nodes of the first step (the PDA would guess m).
  bool found = false;
  Status failure = Status::Ok();
  ForEachOnAxis(*doc_, n, step.axis, [&](xml::NodeId m) {
    ++stats_.composition;
    auto via = CheckStepTo(step, n, m);
    if (!via.ok()) {
      failure = via.status();
      return false;
    }
    if (!*via) return true;
    auto rest = CheckPathSuffix(path, step_index + 1, m, r);
    if (!rest.ok()) {
      failure = rest.status();
      return false;
    }
    if (*rest) {
      found = true;
      return false;
    }
    return true;
  });
  if (!failure.ok()) return failure;
  suffix_memo_.emplace(key, found);
  return found;
}

Result<bool> PdaEvaluator::CheckStepTo(const Step& step, xml::NodeId n,
                                       xml::NodeId r) {
  // Table 1 rows "χ::t" and "χ::t[e]": r must lie on the axis and pass the
  // test; with a predicate, its context position/size within the candidate
  // set Y are computed by streaming over the axis — Y is never materialized
  // (the paper's crucial observation for the L space bound).
  if (step.predicates.empty()) {
    ++stats_.locstep;
    return AxisContains(*doc_, n, step.axis, r) &&
           tests_[static_cast<size_t>(step.id)].Matches(*doc_, r);
  }
  ++stats_.step_predicate;
  int64_t position = 0;
  int64_t size = 0;
  if (!AxisPositionOf(*doc_, n, step.axis, tests_[static_cast<size_t>(step.id)],
                      r, &position, &size)) {
    return false;
  }
  const Expr& predicate = *step.predicates.front();
  const Context ctx{r, position, size};
  if (xpath::StaticType(predicate) == ValueType::kNumber) {
    auto value = EvalNumber(predicate, ctx);
    if (!value.ok()) return value.status();
    return *value == static_cast<double>(position);
  }
  return EvalBoolean(predicate, ctx);
}

Result<bool> PdaEvaluator::ExistsMatch(const Expr& expr, xml::NodeId n) {
  const uint64_t key = ExistsKey(expr.id(), n);
  auto memo = exists_memo_.find(key);
  if (memo != exists_memo_.end()) return memo->second;
  bool found = false;
  for (xml::NodeId r = 0; r < doc_->size() && !found; ++r) {
    auto in = CheckSingleton(expr, n, r);
    if (!in.ok()) return in;
    found = *in;
  }
  exists_memo_.emplace(key, found);
  return found;
}

Result<bool> PdaEvaluator::EvalBoolean(const Expr& expr, const Context& ctx) {
  switch (expr.kind()) {
    case Expr::Kind::kPath:
    case Expr::Kind::kUnion:
      // Conditions have exists-semantics (footnote 3 of the paper).
      return ExistsMatch(expr, ctx.node);
    default:
      break;
  }
  const uint64_t key = PackContext(ctx);
  auto& memo_map = boolean_memo_[static_cast<size_t>(expr.id())];
  auto memo = memo_map.find(key);
  if (memo != memo_map.end()) return memo->second;

  Result<bool> result = [&]() -> Result<bool> {
    switch (expr.kind()) {
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<xpath::BinaryExpr>();
        if (binary.op() == BinaryOp::kAnd) {
          ++stats_.and_op;
          auto lhs = EvalBoolean(binary.lhs(), ctx);
          if (!lhs.ok() || !*lhs) return lhs;
          return EvalBoolean(binary.rhs(), ctx);
        }
        if (binary.op() == BinaryOp::kOr) {
          ++stats_.or_op;
          auto lhs = EvalBoolean(binary.lhs(), ctx);
          if (!lhs.ok() || *lhs) return lhs;
          return EvalBoolean(binary.rhs(), ctx);
        }
        if (xpath::IsRelationalOp(binary.op())) {
          ++stats_.relop;
          return EvalRelop(binary, ctx);
        }
        return UnsupportedError("pda: arithmetic expression in boolean position");
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        switch (call.function()) {
          case Function::kTrue:
            return true;
          case Function::kFalse:
            return false;
          case Function::kBoolean:
            ++stats_.boolean_fn;
            if (xpath::StaticType(call.arg(0)) == ValueType::kNodeSet) {
              return ExistsMatch(call.arg(0), ctx.node);
            }
            return EvalBoolean(call.arg(0), ctx);
          case Function::kNot: {
            // Theorem 5.9: bounded-depth negation via the complementary
            // check (for node-set arguments, a loop over dom).
            ++stats_.not_loop;
            const Expr& arg = call.arg(0);
            if (xpath::StaticType(arg) == ValueType::kNodeSet) {
              auto exists = ExistsMatch(arg, ctx.node);
              if (!exists.ok()) return exists;
              return !*exists;
            }
            auto value = EvalBoolean(arg, ctx);
            if (!value.ok()) return value;
            return !*value;
          }
          case Function::kContains:
          case Function::kStartsWith: {
            auto lhs = EvalScalar(call.arg(0), ctx);
            if (!lhs.ok()) return lhs.status();
            auto rhs = EvalScalar(call.arg(1), ctx);
            if (!rhs.ok()) return rhs.status();
            const std::string a = lhs->ToString(*doc_);
            const std::string b = rhs->ToString(*doc_);
            if (call.function() == Function::kContains) {
              return a.find(b) != std::string::npos;
            }
            return a.size() >= b.size() && a.compare(0, b.size(), b) == 0;
          }
          default:
            return UnsupportedError("pda: unsupported boolean function");
        }
      }
      default:
        return UnsupportedError("pda: unsupported boolean expression");
    }
  }();

  if (result.ok()) memo_map.emplace(key, *result);
  return result;
}

Result<bool> PdaEvaluator::EvalRelop(const xpath::BinaryExpr& binary,
                                     const Context& ctx) {
  const Expr& lhs = binary.lhs();
  const Expr& rhs = binary.rhs();
  const bool lns = xpath::StaticType(lhs) == ValueType::kNodeSet;
  const bool rns = xpath::StaticType(rhs) == ValueType::kNodeSet;

  if (!lns && !rns) {
    auto a = EvalScalar(lhs, ctx);
    if (!a.ok()) return a.status();
    auto b = EvalScalar(rhs, ctx);
    if (!b.ok()) return b.status();
    return CompareValues(*doc_, binary.op(), *a, *b);
  }

  // Node-set operands (pXPath / Theorem 6.2): existential semantics realized
  // as Singleton-Success loops over dom — node sets still never materialize.
  if (lns && rns) {
    for (xml::NodeId a = 0; a < doc_->size(); ++a) {
      auto in_a = CheckSingleton(lhs, ctx.node, a);
      if (!in_a.ok()) return in_a;
      if (!*in_a) continue;
      Value va = Value::Nodes({a});
      for (xml::NodeId b = 0; b < doc_->size(); ++b) {
        auto in_b = CheckSingleton(rhs, ctx.node, b);
        if (!in_b.ok()) return in_b;
        if (!*in_b) continue;
        if (CompareValues(*doc_, binary.op(), va, Value::Nodes({b}))) {
          return true;
        }
      }
    }
    return false;
  }

  const Expr& set_side = lns ? lhs : rhs;
  const Expr& scalar_side = lns ? rhs : lhs;
  auto scalar = EvalScalar(scalar_side, ctx);
  if (!scalar.ok()) return scalar.status();
  for (xml::NodeId v = 0; v < doc_->size(); ++v) {
    auto in = CheckSingleton(set_side, ctx.node, v);
    if (!in.ok()) return in;
    if (!*in) continue;
    const Value node_value = Value::Nodes({v});
    const bool match = lns
                           ? CompareValues(*doc_, binary.op(), node_value, *scalar)
                           : CompareValues(*doc_, binary.op(), *scalar, node_value);
    if (match) return true;
  }
  return false;
}

Result<double> PdaEvaluator::EvalNumber(const Expr& expr, const Context& ctx) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
      ++stats_.constant;
      return expr.As<xpath::NumberLiteral>().value();
    case Expr::Kind::kNegate: {
      auto operand = EvalNumber(expr.As<xpath::NegateExpr>().operand(), ctx);
      if (!operand.ok()) return operand;
      return -*operand;
    }
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<xpath::BinaryExpr>();
      if (!xpath::IsArithmeticOp(binary.op())) {
        return UnsupportedError("pda: boolean operator in numeric position");
      }
      ++stats_.arithop;
      auto lhs = EvalNumber(binary.lhs(), ctx);
      if (!lhs.ok()) return lhs;
      auto rhs = EvalNumber(binary.rhs(), ctx);
      if (!rhs.ok()) return rhs;
      return xpath::ArithmeticOp(binary.op(), *lhs, *rhs);
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      if (call.function() == Function::kPosition) {
        ++stats_.position_fn;
        return static_cast<double>(ctx.position);
      }
      if (call.function() == Function::kLast) {
        ++stats_.last_fn;
        return static_cast<double>(ctx.size);
      }
      return UnsupportedError("pda: unsupported numeric function");
    }
    default:
      return UnsupportedError("pda: unsupported numeric expression");
  }
}

Result<Value> PdaEvaluator::EvalScalar(const Expr& expr, const Context& ctx) {
  switch (xpath::StaticType(expr)) {
    case ValueType::kNumber: {
      auto value = EvalNumber(expr, ctx);
      if (!value.ok()) return value.status();
      return Value::Number(*value);
    }
    case ValueType::kBoolean: {
      auto value = EvalBoolean(expr, ctx);
      if (!value.ok()) return value.status();
      return Value::Boolean(*value);
    }
    case ValueType::kString: {
      switch (expr.kind()) {
        case Expr::Kind::kStringLiteral:
          ++stats_.constant;
          return Value::String(expr.As<xpath::StringLiteral>().value());
        case Expr::Kind::kFunctionCall: {
          const auto& call = expr.As<FunctionCall>();
          if (call.function() == Function::kConcat) {
            std::string out;
            for (size_t i = 0; i < call.arg_count(); ++i) {
              auto piece = EvalScalar(call.arg(i), ctx);
              if (!piece.ok()) return piece;
              out += piece->ToString(*doc_);
            }
            return Value::String(std::move(out));
          }
          return UnsupportedError("pda: unsupported string function");
        }
        default:
          return UnsupportedError("pda: unsupported string expression");
      }
    }
    case ValueType::kNodeSet:
      return UnsupportedError("pda: node-set in scalar position");
  }
  GKX_CHECK(false);
  return InternalError("unreachable");
}

}  // namespace gkx::eval
