#include "eval/pf_evaluator.hpp"

#include "eval/core_linear_evaluator.hpp"  // AxisImage

namespace gkx::eval {

namespace {

Result<NodeBitset> EvalPfPath(const xml::Document& doc,
                              const xpath::PathExpr& path, const Context& ctx) {
  NodeBitset frontier(doc.size());
  frontier.Set(path.absolute() ? doc.root() : ctx.node);
  for (size_t s = 0; s < path.step_count(); ++s) {
    const xpath::Step& step = path.step(s);
    if (!step.predicates.empty()) {
      return UnsupportedError(
          "pf-frontier evaluates the PF fragment only (no predicates)");
    }
    frontier = AxisImage(doc, step.axis, frontier);
    // Apply the node test in place.
    ResolvedTest test = ResolvedTest::Resolve(doc, step.test);
    if (test.kind == xpath::NodeTest::Kind::kName) {
      NodeBitset named(doc.size());
      for (xml::NodeId v = 0; v < doc.size(); ++v) {
        if (test.Matches(doc, v)) named.Set(v);
      }
      frontier &= named;
    }
    if (frontier.Empty()) break;
  }
  return frontier;
}

}  // namespace

Result<Value> PfEvaluator::Evaluate(const xml::Document& doc,
                                    const xpath::Query& query,
                                    const Context& ctx) {
  if (doc.empty()) return InvalidArgumentError("empty document");
  const xpath::Expr& root = query.root();
  switch (root.kind()) {
    case xpath::Expr::Kind::kPath: {
      auto frontier = EvalPfPath(doc, root.As<xpath::PathExpr>(), ctx);
      if (!frontier.ok()) return frontier.status();
      return Value::Nodes(frontier->ToNodeSet());
    }
    case xpath::Expr::Kind::kUnion: {
      const auto& u = root.As<xpath::UnionExpr>();
      NodeBitset merged(doc.size());
      for (size_t i = 0; i < u.branch_count(); ++i) {
        if (u.branch(i).kind() != xpath::Expr::Kind::kPath) {
          return UnsupportedError("pf-frontier: union of plain paths only");
        }
        auto frontier =
            EvalPfPath(doc, u.branch(i).As<xpath::PathExpr>(), ctx);
        if (!frontier.ok()) return frontier.status();
        merged |= *frontier;
      }
      return Value::Nodes(merged.ToNodeSet());
    }
    default:
      return UnsupportedError("pf-frontier evaluates location paths only");
  }
}

}  // namespace gkx::eval
