// Shared recursive semantics kernel. NaiveEvaluator instantiates it with no
// memoization — the direct functional reading of the spec, exponential in |Q|
// on nested conditions exactly like the 2003-era engines described in the
// paper's introduction. CvtEvaluator adds the context-value tables of
// Gottlob–Koch–Pichler [3] on top of the *same* kernel, turning it into the
// polynomial combined-complexity algorithm (Prop 2.7 / Thm 7.2).

#ifndef GKX_EVAL_RECURSIVE_BASE_HPP_
#define GKX_EVAL_RECURSIVE_BASE_HPP_

#include <cstdint>
#include <vector>

#include "eval/evaluator.hpp"
#include "xpath/analysis.hpp"

namespace gkx::eval {

class RecursiveEvaluatorBase : public Evaluator {
 public:
  Result<Value> Evaluate(const xml::Document& doc, const xpath::Query& query,
                         const Context& ctx) override;

  /// Number of expression evaluations performed by the last Evaluate call
  /// (memo hits excluded) — the work measure the experiments report.
  int64_t last_eval_count() const { return eval_count_; }

  /// Binds doc/query (resolving node tests, resetting counters, running the
  /// subclass Prepare) without evaluating anything. The staged plan executor
  /// uses this to drive individual steps of a bound query through this
  /// engine's memo tables via ApplyBoundStep.
  Status Bind(const xml::Document& doc, const xpath::Query& query);

  /// Applies one step of the bound query from `origin` (predicates evaluated
  /// recursively on this engine, positions re-ranked per the spec), appending
  /// the survivors in axis order. Bind must have been called.
  Status ApplyBoundStep(const xpath::Step& step, xml::NodeId origin,
                        NodeSet* out);

 protected:
  /// Memo hooks; the base implementations are no-ops (naive semantics).
  virtual bool LookupMemo(const xpath::Expr& expr, const Context& ctx,
                          Value* out);
  virtual void StoreMemo(const xpath::Expr& expr, const Context& ctx,
                         const Value& value);

  /// Called once per Evaluate() after doc/query are bound, before the root
  /// expression is evaluated. Subclasses set up tables / eager prepasses.
  virtual Status Prepare();

  /// Recursive evaluation (memoized via the hooks).
  Result<Value> Eval(const xpath::Expr& expr, const Context& ctx);

  /// Location-path evaluation from an origin node.
  Result<NodeSet> EvalPathFrom(const xpath::PathExpr& path, xml::NodeId origin);

  const xml::Document& doc() const { return *doc_; }
  const xpath::Query& query() const { return *query_; }

 private:
  Result<Value> EvalBinary(const xpath::BinaryExpr& binary, const Context& ctx);
  Result<Value> EvalFunction(const xpath::FunctionCall& call, const Context& ctx);
  Result<NodeSet> EvalNodeSetExpr(const xpath::Expr& expr, const Context& ctx);

  const xml::Document* doc_ = nullptr;
  const xpath::Query* query_ = nullptr;
  std::vector<ResolvedTest> tests_;  // by step id
  int64_t eval_count_ = 0;
};

/// The direct spec-reading evaluator (no memoization; exponential combined
/// complexity on nested conditions).
class NaiveEvaluator : public RecursiveEvaluatorBase {
 public:
  std::string_view name() const override { return "naive"; }
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_RECURSIVE_BASE_HPP_
