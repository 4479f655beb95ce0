// The evaluator interface shared by the five engines of this repository
// (naive, context-value-table, Core-XPath-linear, NAuxPDA, parallel), plus
// the predicate semantics the engines share: the numeric-predicate
// coercion ([2] == [position()=2]) and the static positional shapes that
// select one candidate without evaluating anything.

#ifndef GKX_EVAL_EVALUATOR_HPP_
#define GKX_EVAL_EVALUATOR_HPP_

#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.hpp"
#include "eval/axes.hpp"
#include "eval/context.hpp"
#include "eval/value.hpp"
#include "xpath/ast.hpp"

namespace gkx::eval {

/// Common interface. Evaluators are stateful per call but reusable; they are
/// not thread-safe unless documented otherwise.
class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Short identifier ("naive", "cvt-lazy", "core-linear", "pda", ...).
  virtual std::string_view name() const = 0;

  /// Evaluates `query` on `doc` in context `ctx`. Returns kUnsupported if the
  /// query falls outside this engine's fragment.
  virtual Result<Value> Evaluate(const xml::Document& doc,
                                 const xpath::Query& query,
                                 const Context& ctx) = 0;

  /// Evaluate in the initial context ⟨root, 1, 1⟩.
  Result<Value> EvaluateAtRoot(const xml::Document& doc,
                               const xpath::Query& query) {
    return Evaluate(doc, query, RootContext(doc));
  }

  /// Evaluate at root and require a node-set result.
  Result<NodeSet> EvaluateNodeSet(const xml::Document& doc,
                                  const xpath::Query& query);
};

/// Truth of a predicate value in a context: numbers are implicit position
/// tests ([2] means [position()=2]); everything else is boolean().
bool PredicateTruth(const Value& value, const Context& ctx);

/// Static shapes whose survivor set is a pure index selection — the
/// classic XPath positional fast path. [k], [position() = k] and
/// [position() = last()] pick one candidate without evaluating anything per
/// candidate (a predicate eval costs an expression walk per candidate; the
/// selection is O(1)). kNone means "evaluate normally". Semantics are
/// identical by construction: positions are 1-based ranks in the same
/// candidate order the per-candidate loop would have used. The recursive
/// kernel's per-origin steps and the cvt engine's staged steps both select
/// through it.
struct PositionalShape {
  enum Kind { kNone, kIndex, kLast } kind = kNone;
  int64_t index = 0;  // for kIndex, the 1-based position

  static PositionalShape Of(const xpath::Expr& predicate) {
    using xpath::Expr;
    using xpath::Function;
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

  /// Keeps the selected one of `candidates` (in axis order), or none.
  void Select(std::vector<xml::NodeId>* candidates) const {
    const auto size = static_cast<int64_t>(candidates->size());
    const int64_t at = kind == kLast ? size : index;
    if (at < 1 || at > size) {
      candidates->clear();
      return;
    }
    (*candidates)[0] = (*candidates)[static_cast<size_t>(at - 1)];
    candidates->resize(1);
  }

 private:
  static bool IsCall(const xpath::Expr& expr, xpath::Function fn) {
    return expr.kind() == xpath::Expr::Kind::kFunctionCall &&
           expr.As<xpath::FunctionCall>().function() == fn &&
           expr.As<xpath::FunctionCall>().arg_count() == 0;
  }
  static PositionalShape FromNumber(double value) {
    // Non-integral, non-positive or unreachable positions match nothing;
    // Select's range check turns index 0 into an empty selection.
    if (!(value >= 1.0 && value <= 0x1p53) || value != std::floor(value)) {
      return PositionalShape{kIndex, 0};
    }
    return PositionalShape{kIndex, static_cast<int64_t>(value)};
  }
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_EVALUATOR_HPP_
