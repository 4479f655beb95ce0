#include "eval/cvt_evaluator.hpp"

#include <cmath>

#include "eval/core_linear_evaluator.hpp"

namespace gkx::eval {

using xpath::ContextDependence;
using xpath::Expr;

Status CvtEvaluator::Prepare() {
  const size_t n = static_cast<size_t>(query().num_exprs());
  constant_.assign(n, std::nullopt);
  by_node_.assign(n, {});
  table_entries_ = 0;

  if (options_.eager) {
    // Bottom-up pass: expression ids are preorder, so reverse id order
    // visits children before parents. Fill the full context-value table of
    // every node-dependent subexpression; position-dependent ones have no
    // table.
    for (int id = query().num_exprs() - 1; id >= 0; --id) {
      const Expr& expr = query().expr(id);
      switch (query().analysis().traits(expr).dependence) {
        case ContextDependence::kNone: {
          auto value = Eval(expr, RootContext(doc()));
          if (!value.ok()) return value.status();
          break;
        }
        case ContextDependence::kNode: {
          for (xml::NodeId v = 0; v < doc().size(); ++v) {
            auto value = Eval(expr, Context{v, 1, 1});
            if (!value.ok()) return value.status();
          }
          break;
        }
        case ContextDependence::kFull:
          break;  // never tabled
      }
    }
  }
  return Status::Ok();
}

Result<bool> CvtEvaluator::Truth(const Expr& expr, const Context& ctx,
                                 bool predicate) {
  const xpath::ExprTraits& traits = query().analysis().traits(expr);
  if (traits.position_test) {
    CountEvaluation();
    const auto position = static_cast<double>(ctx.position);
    const auto size = static_cast<double>(ctx.size);
    if (traits.type == xpath::ValueType::kBoolean) {
      return xpath::PositionBoolean(expr, position, size);
    }
    const double number = xpath::PositionNumber(expr, position, size);
    return predicate ? number == position
                     : number != 0.0 && !std::isnan(number);
  }
  if (conditions_ != nullptr && traits.core_condition) {
    auto set = conditions_->ConditionSet(expr);
    if (!set.ok()) return set.status();
    return (*set)->Test(ctx.node);
  }
  if (const Value* cell = Cell(expr, ctx)) {
    return predicate ? PredicateTruth(*cell, ctx) : cell->ToBoolean();
  }
  return RecursiveEvaluatorBase::Truth(expr, ctx, predicate);
}

const Value* CvtEvaluator::Cell(const Expr& expr, const Context& ctx) const {
  const size_t id = static_cast<size_t>(expr.id());
  switch (query().analysis().traits(expr).dependence) {
    case ContextDependence::kNone:
      return constant_[id].has_value() ? &*constant_[id] : nullptr;
    case ContextDependence::kNode: {
      auto it = by_node_[id].find(ctx.node);
      return it == by_node_[id].end() ? nullptr : &it->second;
    }
    case ContextDependence::kFull:
      return nullptr;  // recomputed, never tabled
  }
  GKX_CHECK(false);
  return nullptr;
}

bool CvtEvaluator::LookupMemo(const Expr& expr, const Context& ctx, Value* out) {
  const Value* cell = Cell(expr, ctx);
  if (cell == nullptr) return false;
  *out = *cell;
  return true;
}

void CvtEvaluator::StoreMemo(const Expr& expr, const Context& ctx,
                             const Value& value) {
  const size_t id = static_cast<size_t>(expr.id());
  // The entry count reflects genuine inserts only.
  bool inserted = false;
  switch (query().analysis().traits(expr).dependence) {
    case ContextDependence::kNone:
      if (!constant_[id].has_value()) {
        constant_[id] = value;
        inserted = true;
      }
      break;
    case ContextDependence::kNode:
      inserted = by_node_[id].emplace(ctx.node, value).second;
      break;
    case ContextDependence::kFull:
      break;  // never tabled
  }
  if (inserted) ++table_entries_;
}

}  // namespace gkx::eval
