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

}  // namespace gkx::eval
