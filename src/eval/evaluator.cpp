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
      positional.Select(&candidates);
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
