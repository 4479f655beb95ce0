// The O(|D|·|Q|) Core XPath evaluator of Gottlob–Koch–Pichler [3]
// (Prop 2.7). Set-at-a-time: conditions are evaluated bottom-up as *sets of
// nodes satisfying them* (bitsets), location paths as set-to-set axis images;
// every axis image is computed by an O(|D|) tree sweep, so total time is
// O(|D|·|Q|). Supports exactly Core XPath (Def 2.5): paths, predicates with
// and/or/not, union — anything else returns kUnsupported.
//
// The sweeps run on the calling thread. The paper places Core and PF in
// LOGCFL (Thm 6.6), so they parallelize in principle, but partitioning the
// sweeps across a thread pool did not pay at the document sizes the
// service holds (README, "Intra-query parallelism").

#ifndef GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_
#define GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_

#include <cstdint>
#include <unordered_map>

#include "eval/evaluator.hpp"

namespace gkx::eval {

/// Computes the image of `input` under `axis`: { y : ∃x ∈ input, y ∈ axis(x) }.
/// One pass per call: an O(|D|) sweep over the document, or a walk over the
/// members of a sparse input (see the implementation notes).
NodeBitset AxisImage(const xml::Document& doc, xpath::Axis axis,
                     const NodeBitset& input);

/// The axis χ' with y ∈ χ'(x) iff x ∈ χ(y) (child↔parent, descendant↔ancestor,
/// following↔preceding, self↔self, ...-sibling mirrored).
xpath::Axis InverseAxis(xpath::Axis axis);

class CoreLinearEvaluator : public Evaluator {
 public:
  std::string_view name() const override { return "core-linear"; }

  Result<Value> Evaluate(const xml::Document& doc, const xpath::Query& query,
                         const Context& ctx) override;

  /// Binds a document. The condition cache is query-scoped (keyed by
  /// expression id, which collides across queries), so it always clears;
  /// the test-set cache is document-scoped, so rebinding the SAME document
  /// — identified by (address, serial), never by address alone — keeps it
  /// warm. A long-lived evaluator thus pays each O(|D|) test fill once per
  /// (document, name), not once per run; answers are identical either way
  /// because documents are immutable.
  void Bind(const xml::Document& doc) {
    condition_cache_.clear();
    if (doc_ == &doc && bound_serial_ == doc.serial()) return;
    doc_ = &doc;
    bound_serial_ = doc.serial();
    test_cache_.clear();
  }

  /// Applies steps [begin, end) of `path` to the `frontier` set-at-a-time:
  /// one axis image + test/condition intersection per step, O(|D|) each.
  /// Every predicate in the range must be a Core bexpr (kUnsupported
  /// otherwise). Bind must have been called.
  Result<NodeBitset> EvalStepRange(const xpath::PathExpr& path, size_t begin,
                                   size_t end, const NodeBitset& frontier);

 private:
  /// Set of nodes where the Core XPath condition holds (bexpr of Def 2.5).
  /// Returns a pointer into condition_cache_ (stable until the next Bind) so
  /// fused intersection passes can AND several cached sets without copying.
  Result<const NodeBitset*> ConditionSet(const xpath::Expr& expr);

  /// Set of nodes from which the path (suffix starting at `step_index`)
  /// selects at least one node — computed right-to-left via inverse axes.
  Result<NodeBitset> PathOriginSet(const xpath::PathExpr& path);

  /// Forward evaluation: image of `start` under the whole path.
  Result<NodeBitset> EvalPathForward(const xpath::PathExpr& path,
                                     const NodeBitset& start);

  /// Forward evaluation of a path-or-union expression.
  Result<NodeBitset> EvalNodeSetForward(const xpath::Expr& expr,
                                        const NodeBitset& start);

  /// Nodes passing the step's node test. Cached per Bind, keyed by the
  /// resolved test — a query touching the same name on several steps used
  /// to rescan all of doc (and re-resolve the name) once per step of every
  /// segment; now each distinct test is one O(|D|) fill per bound document.
  const NodeBitset& TestSet(const xpath::Step& step);

  const xml::Document* doc_ = nullptr;
  uint64_t bound_serial_ = 0;  // serial of *doc_ when test_cache_ was built
  // Condition sets are shared across all uses of a subexpression (the query
  // is processed as a DAG of conditions), keyed by expression id.
  std::unordered_map<int, NodeBitset> condition_cache_;
  // Resolved-test bitsets, keyed by (test kind, resolved name id).
  std::unordered_map<uint64_t, NodeBitset> test_cache_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_
