// The O(|D|·|Q|) Core XPath evaluator of Gottlob–Koch–Pichler [3]
// (Prop 2.7). Set-at-a-time: conditions are evaluated bottom-up as *sets of
// nodes satisfying them* (bitsets), location paths as set-to-set axis images;
// every node test and every axis image is one O(|D|) set operation, so total
// time is O(|D|·|Q|). Supports exactly Core XPath (Def 2.5): paths,
// predicates with and/or/not, union — anything else returns kUnsupported.
//
// The set operations run at column speed: a node test compares the tag
// column and packs 64 nodes to a word, and every dense axis pass streams
// one SoA column (parent or subtree size) in preorder, reading and writing
// the sets a word at a time, with no per-node call and no walk of child
// lists. Child and ancestor* also have a member walk for sparse inputs,
// O(|frontier| + output), picked by the member count alone (UseSparse);
// every other axis has one form at any density: parent and the sibling
// axes walk the input's members, descendant*, following and preceding set
// preorder ranges.
//
// Settled work is skipped. An empty set stops a sweep: EvalStepRange
// returns at the first empty axis image, before that step's test set or
// any condition set is built, and builds a predicate's condition set only
// while the step's set is non-empty; PathOriginSet likewise stops at the
// first empty target. An absolute path in a condition is a constant (kNone): it
// holds at every node or at none, so ConditionSet runs it once, forward
// from the root, instead of right-to-left over every node; from the root
// the parent, ancestor, sibling, following and preceding axes are empty,
// so such a path usually ends at its first step.
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

  /// Binds a document for one run: the condition and test-set caches both
  /// start empty, so nothing of an earlier run (another query, document or
  /// revision) is read.
  void Bind(const xml::Document& doc) {
    doc_ = &doc;
    condition_cache_.clear();
    test_cache_.clear();
  }

  /// Applies steps [begin, end) of `path` to the `frontier` set-at-a-time:
  /// one axis image + test/condition intersection per step, O(|D|) each,
  /// and returns at the first empty set. Every predicate in the range must
  /// be a Core bexpr (one the sweep reaches returns kUnsupported
  /// otherwise). Bind must have been called.
  Result<NodeBitset> EvalStepRange(const xpath::PathExpr& path, size_t begin,
                                   size_t end, const NodeBitset& frontier);

  /// Set of nodes where the Core XPath condition holds (bexpr of Def 2.5),
  /// computed bottom-up for all nodes at once in O(|D|·|expr|) and cached
  /// until the next Bind. Returns a pointer into the cache, so fused
  /// intersection passes can AND several sets without copying. Bind must
  /// have been called, and every expression asked for between two Binds
  /// must come from one query (the cache is keyed by expression id). The
  /// staged executor's cvt engine reads its Core conditions from here.
  Result<const NodeBitset*> ConditionSet(const xpath::Expr& expr);

 private:

  /// Set of nodes from which the relative path selects at least one node —
  /// computed right-to-left via inverse axes.
  Result<NodeBitset> PathOriginSet(const xpath::PathExpr& path);

  /// Condition set of an absolute path: every node when the path selects
  /// anything from the root, none otherwise. Out of line, so its
  /// temporaries stay out of ConditionSet's frame, which every nesting
  /// level of a condition pays (a deep Core query must fit a thread's
  /// stack in sanitizer builds too).
  [[gnu::noinline]] Result<NodeBitset> AbsolutePathSet(
      const xpath::PathExpr& path);

  /// Forward evaluation: image of `start` under the whole path.
  Result<NodeBitset> EvalPathForward(const xpath::PathExpr& path,
                                     const NodeBitset& start);

  /// Forward evaluation of a path-or-union expression.
  Result<NodeBitset> EvalNodeSetForward(const xpath::Expr& expr,
                                        const NodeBitset& start);

  /// Nodes passing the step's node test, filled from the tag column (and
  /// the label spans, when the document has extra labels). Cached until the
  /// next Bind, keyed by the resolved test, so each distinct test is one
  /// O(|D|) fill per run.
  const NodeBitset& TestSet(const xpath::Step& step);

  const xml::Document* doc_ = nullptr;
  // Condition sets are shared across all uses of a subexpression (the query
  // is processed as a DAG of conditions), keyed by expression id.
  std::unordered_map<int, NodeBitset> condition_cache_;
  // Resolved-test bitsets, keyed by (test kind, resolved name id).
  std::unordered_map<uint64_t, NodeBitset> test_cache_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CORE_LINEAR_EVALUATOR_HPP_
