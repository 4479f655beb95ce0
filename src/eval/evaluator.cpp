#include "eval/evaluator.hpp"

#include <utility>

namespace gkx::eval {

Result<NodeSet> Evaluator::EvaluateNodeSet(const xml::Document& doc,
                                           const xpath::Query& query) {
  auto value = EvaluateAtRoot(doc, query);
  if (!value.ok()) return value.status();
  if (!value->is_node_set()) {
    return InvalidArgumentError(
        "query does not evaluate to a node-set (got " +
        std::string(xpath::ValueTypeName(value->type())) + ")");
  }
  return std::move(value).value().TakeNodes();
}

bool PredicateTruth(const Value& value, const Context& ctx) {
  if (value.type() == ValueType::kNumber) {
    return value.number() == static_cast<double>(ctx.position);
  }
  return value.ToBoolean();
}

namespace {

/// Static shapes whose survivor set is a pure index selection — the
/// classic XPath positional fast path. [k], [position() = k], and
/// [position() = last()] pick one candidate without evaluating anything
/// per candidate (a predicate eval costs axis-order position bookkeeping
/// plus an expression walk per candidate; the selection is O(1)).
/// kNone means "evaluate normally". Semantics are identical by
/// construction: positions are 1-based ranks in the same candidate order
/// the per-candidate loop would have used.
struct PositionalShape {
  enum Kind { kNone, kIndex, kLast } kind = kNone;
  int64_t index = 0;  // for kIndex, the 1-based position

  static PositionalShape Of(const xpath::Expr& predicate) {
    using xpath::Expr;
    using xpath::Function;
    using xpath::FunctionCall;
    if (predicate.kind() == Expr::Kind::kNumberLiteral) {
      return FromNumber(predicate.As<xpath::NumberLiteral>().value());
    }
    if (predicate.kind() != Expr::Kind::kBinary) return {};
    const auto& binary = predicate.As<xpath::BinaryExpr>();
    if (binary.op() != xpath::BinaryOp::kEq) return {};
    const Expr* position = &binary.lhs();
    const Expr* target = &binary.rhs();
    if (!IsCall(*position, Function::kPosition)) {
      std::swap(position, target);
    }
    if (!IsCall(*position, Function::kPosition)) return {};
    if (IsCall(*target, Function::kLast)) {
      return PositionalShape{kLast, 0};
    }
    if (target->kind() == Expr::Kind::kNumberLiteral) {
      return FromNumber(target->As<xpath::NumberLiteral>().value());
    }
    return {};
  }

 private:
  static bool IsCall(const xpath::Expr& expr, xpath::Function fn) {
    return expr.kind() == xpath::Expr::Kind::kFunctionCall &&
           expr.As<xpath::FunctionCall>().function() == fn &&
           expr.As<xpath::FunctionCall>().arg_count() == 0;
  }
  static PositionalShape FromNumber(double value) {
    const auto index = static_cast<int64_t>(value);
    // Non-integral or non-positive positions match nothing; an empty
    // selection falls out of the out-of-range check at the use site.
    if (static_cast<double>(index) != value || index < 1) {
      return PositionalShape{kIndex, 0};
    }
    return PositionalShape{kIndex, index};
  }
};

/// Recycled candidate buffers for ApplyStep. The per-origin cvt loop calls
/// ApplyStep once per origin — on a frontier of thousands of origins the
/// malloc/free pair of a fresh candidates vector dominates the (often
/// empty) axis walk itself. The pool is a stack because ApplyStep
/// re-enters through predicate evaluation (a predicate's path runs
/// ApplyStep on its own origins), and per thread because the engines of a
/// forked batch run concurrently, each on its own thread. A buffer that
/// leaves via an error return simply isn't recycled — no leak, the pool
/// just refills later.
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

Status ApplyStep(const xml::Document& doc, const xpath::Step& step,
                 const ResolvedTest& test, xml::NodeId origin,
                 const PredicateFn& eval_predicate,
                 std::vector<xml::NodeId>* out) {
  // Predicate-free steps never need the candidate list at all: survivors
  // are exactly the test-passing axis nodes, streamed straight into `out`
  // in axis order (the same order AxisNodes materializes).
  if (step.predicates.empty()) {
    ForEachOnAxis(doc, origin, step.axis, [&](xml::NodeId v) {
      if (test.Matches(doc, v)) out->push_back(v);
      return true;
    });
    return Status::Ok();
  }
  std::vector<xml::NodeId> candidates = AcquireBuffer();
  ForEachOnAxis(doc, origin, step.axis, [&](xml::NodeId v) {
    if (test.Matches(doc, v)) candidates.push_back(v);
    return true;
  });
  for (const xpath::ExprPtr& predicate : step.predicates) {
    if (candidates.empty()) break;
    const PositionalShape positional = PositionalShape::Of(*predicate);
    if (positional.kind != PositionalShape::kNone) {
      const auto size = static_cast<int64_t>(candidates.size());
      const int64_t index =
          positional.kind == PositionalShape::kLast ? size : positional.index;
      if (index < 1 || index > size) {
        candidates.clear();
      } else {
        candidates.assign(1, candidates[static_cast<size_t>(index - 1)]);
      }
      continue;
    }
    std::vector<xml::NodeId> survivors = AcquireBuffer();
    survivors.reserve(candidates.size());
    const int64_t size = static_cast<int64_t>(candidates.size());
    for (int64_t i = 0; i < size; ++i) {
      Context ctx{candidates[static_cast<size_t>(i)], i + 1, size};
      auto keep = eval_predicate(*predicate, ctx);
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

}  // namespace gkx::eval
