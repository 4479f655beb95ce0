#include "eval/recursive_base.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "base/string_util.hpp"

namespace gkx::eval {

using xpath::BinaryOp;
using xpath::Expr;
using xpath::Function;
using xpath::FunctionCall;
using xpath::PathExpr;
using xpath::UnionExpr;

namespace {

/// Recycled candidate buffers for ApplyStep. A path evaluated per origin
/// (EvalPathFrom) calls ApplyStep once per origin of each step — on a
/// frontier of thousands of origins the malloc/free pair of a fresh
/// candidates vector dominates the (often empty) axis walk itself. The pool
/// is a stack because ApplyStep re-enters through predicate evaluation (a
/// predicate's path runs ApplyStep on its own origins), and per thread
/// because the engines of a forked batch run concurrently, each on its own
/// thread. A buffer that leaves via an error return simply isn't recycled —
/// no leak, the pool just refills later.
std::vector<std::vector<xml::NodeId>>& BufferPool() {
  thread_local std::vector<std::vector<xml::NodeId>> pool;
  return pool;
}

std::vector<xml::NodeId> AcquireBuffer() {
  auto& pool = BufferPool();
  if (pool.empty()) return {};
  std::vector<xml::NodeId> buffer = std::move(pool.back());
  pool.pop_back();
  buffer.clear();
  return buffer;
}

void RecycleBuffer(std::vector<xml::NodeId>&& buffer) {
  BufferPool().push_back(std::move(buffer));
}

}  // namespace

Status RecursiveEvaluatorBase::Bind(const xml::Document& doc,
                                    const xpath::Query& query) {
  if (doc.empty()) return InvalidArgumentError("empty document");
  doc_ = &doc;
  query_ = &query;
  eval_count_ = 0;
  tests_.clear();
  tests_.reserve(static_cast<size_t>(query.num_steps()));
  for (int id = 0; id < query.num_steps(); ++id) {
    tests_.push_back(ResolvedTest::Resolve(doc, query.step(id).test));
  }
  return Prepare();
}

Result<Value> RecursiveEvaluatorBase::Evaluate(const xml::Document& doc,
                                               const xpath::Query& query,
                                               const Context& ctx) {
  GKX_RETURN_IF_ERROR(Bind(doc, query));
  return Eval(query.root(), ctx);
}

bool RecursiveEvaluatorBase::LookupMemo(const Expr&, const Context&, Value*) {
  return false;
}

void RecursiveEvaluatorBase::StoreMemo(const Expr&, const Context&, const Value&) {}

Status RecursiveEvaluatorBase::Prepare() { return Status::Ok(); }

Result<Value> RecursiveEvaluatorBase::Eval(const Expr& expr, const Context& ctx) {
  Value memoized;
  if (LookupMemo(expr, ctx, &memoized)) return memoized;
  ++eval_count_;

  Result<Value> result = [&]() -> Result<Value> {
    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
        return Value::Number(expr.As<xpath::NumberLiteral>().value());
      case Expr::Kind::kStringLiteral:
        return Value::String(expr.As<xpath::StringLiteral>().value());
      case Expr::Kind::kBinary:
        return EvalBinary(expr.As<xpath::BinaryExpr>(), ctx);
      case Expr::Kind::kNegate: {
        auto operand = Eval(expr.As<xpath::NegateExpr>().operand(), ctx);
        if (!operand.ok()) return operand.status();
        return Value::Number(-operand->ToNumber(doc()));
      }
      case Expr::Kind::kFunctionCall:
        return EvalFunction(expr.As<FunctionCall>(), ctx);
      case Expr::Kind::kPath: {
        auto nodes = EvalPathFrom(expr.As<PathExpr>(), ctx.node);
        if (!nodes.ok()) return nodes.status();
        return Value::Nodes(std::move(nodes).value());
      }
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<UnionExpr>();
        NodeSet merged;
        for (size_t i = 0; i < u.branch_count(); ++i) {
          auto branch = EvalNodeSetExpr(u.branch(i), ctx);
          if (!branch.ok()) return branch.status();
          merged = UnionSets(merged, *branch);
        }
        return Value::Nodes(std::move(merged));
      }
    }
    GKX_CHECK(false);
    return InternalError("unreachable");
  }();

  if (result.ok()) StoreMemo(expr, ctx, *result);
  return result;
}

Result<NodeSet> RecursiveEvaluatorBase::EvalNodeSetExpr(const Expr& expr,
                                                        const Context& ctx) {
  auto value = Eval(expr, ctx);
  if (!value.ok()) return value.status();
  if (!value->is_node_set()) {
    return InvalidArgumentError("expected a node-set operand, got " +
                                std::string(xpath::ValueTypeName(value->type())));
  }
  return std::move(value).value().TakeNodes();
}

Result<Value> RecursiveEvaluatorBase::EvalBinary(const xpath::BinaryExpr& binary,
                                                 const Context& ctx) {
  const BinaryOp op = binary.op();
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    auto lhs = Truth(binary.lhs(), ctx, /*predicate=*/false);
    if (!lhs.ok()) return lhs.status();
    if (op == BinaryOp::kAnd && !*lhs) return Value::Boolean(false);
    if (op == BinaryOp::kOr && *lhs) return Value::Boolean(true);
    auto rhs = Truth(binary.rhs(), ctx, /*predicate=*/false);
    if (!rhs.ok()) return rhs.status();
    return Value::Boolean(*rhs);
  }
  auto lhs = Eval(binary.lhs(), ctx);
  if (!lhs.ok()) return lhs.status();
  auto rhs = Eval(binary.rhs(), ctx);
  if (!rhs.ok()) return rhs.status();
  if (xpath::IsRelationalOp(op)) {
    return Value::Boolean(CompareValues(doc(), op, *lhs, *rhs));
  }
  return Value::Number(
      xpath::ArithmeticOp(op, lhs->ToNumber(doc()), rhs->ToNumber(doc())));
}

Result<Value> RecursiveEvaluatorBase::EvalFunction(const FunctionCall& call,
                                                   const Context& ctx) {
  auto string_arg_or_context = [&](size_t index) -> Result<std::string> {
    if (call.arg_count() > index) {
      auto value = Eval(call.arg(index), ctx);
      if (!value.ok()) return value.status();
      return value->ToString(doc());
    }
    return doc().StringValue(ctx.node);
  };

  switch (call.function()) {
    case Function::kPosition:
      return Value::Number(static_cast<double>(ctx.position));
    case Function::kLast:
      return Value::Number(static_cast<double>(ctx.size));
    case Function::kTrue:
      return Value::Boolean(true);
    case Function::kFalse:
      return Value::Boolean(false);
    case Function::kNot:
    case Function::kBoolean: {
      auto arg = Truth(call.arg(0), ctx, /*predicate=*/false);
      if (!arg.ok()) return arg.status();
      return Value::Boolean(call.function() == Function::kNot ? !*arg : *arg);
    }
    case Function::kNumber: {
      if (call.arg_count() == 0) {
        return Value::Number(ParseXPathNumber(doc().StringValue(ctx.node)));
      }
      auto arg = Eval(call.arg(0), ctx);
      if (!arg.ok()) return arg.status();
      return Value::Number(arg->ToNumber(doc()));
    }
    case Function::kString: {
      auto text = string_arg_or_context(0);
      if (!text.ok()) return text.status();
      return Value::String(std::move(text).value());
    }
    case Function::kCount: {
      // Count pushdown: a single predicate-free step needs no node set —
      // stream the axis and count matches (duplicate-free by construction,
      // so the materialize + SortUnique of the general path is pure
      // overhead here).
      const Expr& arg = call.arg(0);
      if (arg.kind() == Expr::Kind::kPath) {
        const auto& path = arg.As<PathExpr>();
        if (!path.absolute() && path.step_count() == 1 &&
            path.step(0).predicates.empty()) {
          const xpath::Step& step = path.step(0);
          const ResolvedTest& test = tests_[static_cast<size_t>(step.id)];
          int64_t count = 0;
          ForEachOnAxis(doc(), ctx.node, step.axis, [&](xml::NodeId v) {
            if (test.Matches(doc(), v)) ++count;
            return true;
          });
          return Value::Number(static_cast<double>(count));
        }
      }
      auto nodes = EvalNodeSetExpr(call.arg(0), ctx);
      if (!nodes.ok()) return nodes.status();
      return Value::Number(static_cast<double>(nodes->size()));
    }
    case Function::kSum: {
      auto nodes = EvalNodeSetExpr(call.arg(0), ctx);
      if (!nodes.ok()) return nodes.status();
      double sum = 0.0;
      for (xml::NodeId v : *nodes) {
        sum += ParseXPathNumber(doc().StringValue(v));
      }
      return Value::Number(sum);
    }
    case Function::kConcat: {
      std::string out;
      for (size_t i = 0; i < call.arg_count(); ++i) {
        auto value = Eval(call.arg(i), ctx);
        if (!value.ok()) return value.status();
        out += value->ToString(doc());
      }
      return Value::String(std::move(out));
    }
    case Function::kContains: {
      auto hay = Eval(call.arg(0), ctx);
      if (!hay.ok()) return hay.status();
      auto needle = Eval(call.arg(1), ctx);
      if (!needle.ok()) return needle.status();
      return Value::Boolean(hay->ToString(doc()).find(needle->ToString(doc())) !=
                            std::string::npos);
    }
    case Function::kStartsWith: {
      auto hay = Eval(call.arg(0), ctx);
      if (!hay.ok()) return hay.status();
      auto prefix = Eval(call.arg(1), ctx);
      if (!prefix.ok()) return prefix.status();
      const std::string h = hay->ToString(doc());
      const std::string p = prefix->ToString(doc());
      return Value::Boolean(h.size() >= p.size() && h.compare(0, p.size(), p) == 0);
    }
    case Function::kStringLength: {
      auto text = string_arg_or_context(0);
      if (!text.ok()) return text.status();
      return Value::Number(static_cast<double>(text->size()));
    }
    case Function::kNormalizeSpace: {
      auto text = string_arg_or_context(0);
      if (!text.ok()) return text.status();
      return Value::String(NormalizeSpace(*text));
    }
    case Function::kSubstring: {
      auto text = Eval(call.arg(0), ctx);
      if (!text.ok()) return text.status();
      auto start = Eval(call.arg(1), ctx);
      if (!start.ok()) return start.status();
      const std::string s = text->ToString(doc());
      // §4.2: character p is kept iff round(start) <= p and (3-arg form)
      // p < round(start) + round(length); NaN comparisons are false.
      const double from = XPathRound(start->ToNumber(doc()));
      double limit = std::numeric_limits<double>::infinity();
      if (call.arg_count() == 3) {
        auto length = Eval(call.arg(2), ctx);
        if (!length.ok()) return length.status();
        limit = from + XPathRound(length->ToNumber(doc()));
      }
      std::string out;
      for (size_t i = 0; i < s.size(); ++i) {
        const double p = static_cast<double>(i + 1);
        if (p >= from && p < limit) out += s[i];
      }
      return Value::String(std::move(out));
    }
    case Function::kSubstringBefore:
    case Function::kSubstringAfter: {
      auto hay = Eval(call.arg(0), ctx);
      if (!hay.ok()) return hay.status();
      auto needle = Eval(call.arg(1), ctx);
      if (!needle.ok()) return needle.status();
      const std::string h = hay->ToString(doc());
      const std::string n = needle->ToString(doc());
      const size_t at = h.find(n);
      if (at == std::string::npos) return Value::String("");
      if (call.function() == Function::kSubstringBefore) {
        return Value::String(h.substr(0, at));
      }
      return Value::String(h.substr(at + n.size()));
    }
    case Function::kTranslate: {
      auto text = Eval(call.arg(0), ctx);
      if (!text.ok()) return text.status();
      auto from = Eval(call.arg(1), ctx);
      if (!from.ok()) return from.status();
      auto to = Eval(call.arg(2), ctx);
      if (!to.ok()) return to.status();
      const std::string s = text->ToString(doc());
      const std::string f = from->ToString(doc());
      const std::string t = to->ToString(doc());
      std::string out;
      out.reserve(s.size());
      for (char c : s) {
        const size_t at = f.find(c);
        if (at == std::string::npos) {
          out += c;  // not mentioned: kept
        } else if (at < t.size()) {
          out += t[at];  // mapped
        }  // else: mentioned with no replacement: dropped
      }
      return Value::String(std::move(out));
    }
    case Function::kFloor: {
      auto arg = Eval(call.arg(0), ctx);
      if (!arg.ok()) return arg.status();
      return Value::Number(std::floor(arg->ToNumber(doc())));
    }
    case Function::kCeiling: {
      auto arg = Eval(call.arg(0), ctx);
      if (!arg.ok()) return arg.status();
      return Value::Number(std::ceil(arg->ToNumber(doc())));
    }
    case Function::kRound: {
      auto arg = Eval(call.arg(0), ctx);
      if (!arg.ok()) return arg.status();
      return Value::Number(XPathRound(arg->ToNumber(doc())));
    }
    case Function::kName:
    case Function::kLocalName: {
      // No namespaces in this model, so name == local-name.
      xml::NodeId target = ctx.node;
      if (call.arg_count() == 1) {
        auto nodes = EvalNodeSetExpr(call.arg(0), ctx);
        if (!nodes.ok()) return nodes.status();
        if (nodes->empty()) return Value::String("");
        target = nodes->front();
      }
      return Value::String(std::string(doc().TagName(target)));
    }
  }
  GKX_CHECK(false);
  return InternalError("unreachable");
}

Status RecursiveEvaluatorBase::ApplyStep(const xpath::Step& step,
                                         xml::NodeId origin,
                                         std::vector<xml::NodeId>* out) {
  const xml::Document& document = doc();
  const ResolvedTest& test = tests_[static_cast<size_t>(step.id)];
  // Predicate-free steps never need the candidate list at all: survivors
  // are exactly the test-passing axis nodes, streamed straight into `out`
  // in axis order (the same order AxisNodes materializes).
  if (step.predicates.empty()) {
    ForEachOnAxis(document, origin, step.axis, [&](xml::NodeId v) {
      if (test.Matches(document, v)) out->push_back(v);
      return true;
    });
    return Status::Ok();
  }
  std::vector<xml::NodeId> candidates = AcquireBuffer();
  ForEachOnAxis(document, origin, step.axis, [&](xml::NodeId v) {
    if (test.Matches(document, v)) candidates.push_back(v);
    return true;
  });
  for (const xpath::ExprPtr& predicate : step.predicates) {
    if (candidates.empty()) break;
    const PositionalShape positional = PositionalShape::Of(*predicate);
    if (positional.kind != PositionalShape::kNone) {
      positional.Select(&candidates);
      continue;
    }
    std::vector<xml::NodeId> survivors = AcquireBuffer();
    survivors.reserve(candidates.size());
    const int64_t size = static_cast<int64_t>(candidates.size());
    for (int64_t i = 0; i < size; ++i) {
      Context ctx{candidates[static_cast<size_t>(i)], i + 1, size};
      auto keep = Truth(*predicate, ctx, /*predicate=*/true);
      if (!keep.ok()) return keep.status();
      if (*keep) survivors.push_back(ctx.node);
    }
    std::swap(candidates, survivors);  // re-ranked for the next predicate
    RecycleBuffer(std::move(survivors));
  }
  out->insert(out->end(), candidates.begin(), candidates.end());
  RecycleBuffer(std::move(candidates));
  return Status::Ok();
}

Result<NodeSet> RecursiveEvaluatorBase::EvalPathFrom(const PathExpr& path,
                                                     xml::NodeId origin) {
  NodeSet current;
  current.push_back(path.absolute() ? doc().root() : origin);
  for (size_t s = 0; s < path.step_count(); ++s) {
    const xpath::Step& step = path.step(s);
    NodeSet next;
    for (xml::NodeId x : current) {
      GKX_RETURN_IF_ERROR(ApplyStep(step, x, &next));
    }
    SortUnique(&next);
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

}  // namespace gkx::eval
