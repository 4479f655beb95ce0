// The context-value-table evaluator — the paper's polynomial-time
// combined-complexity algorithm ([3], recalled in Prop 2.7 and Thms 7.2/7.3).
//
// Every subexpression owns a table from *meaningful contexts* to values.
// Static analysis decides what a context is for each subexpression:
//   * constants and absolute paths        -> a single cell,
//   * anything position()/last()-free     -> keyed by the context node,
//   * position()/last()-dependent (kFull) -> recomputed, never tabled.
// Tables are filled on demand (lazy mode) or by a bottom-up pass over all
// nodes (eager mode — the literal bottom-up algorithm of [3]). Both modes
// share the semantics kernel of RecursiveEvaluatorBase, so they agree with
// the naive evaluator by construction; the complexity drops from
// exponential to polynomial because each tabled (expression, context) pair
// is computed at most once. The table shapes come from the query's own
// analysis (Query::analysis()), and the tables last one run: every Bind
// starts them empty, as [3] fills them for one evaluation.
//
// Why a position-dependent expression may go untabled without losing
// Prop 2.7's polynomial bound:
//   * Every location path and union rebinds the context, so its value
//     depends on the context node at most (kNode or kNone); the grammar has
//     no filter expressions, no id() and no lang().
//   * So a kFull expression is an operator skeleton (and/or, comparisons,
//     arithmetic, not(), string functions) over constant cells, node-keyed
//     cells and position()/last(). One evaluation costs the skeleton plus
//     the comparisons on its node-set operands, which a ⟨node, position,
//     size⟩ cell would pay as well, once per context.
//   * Each evaluation is asked for, directly or through its kFull parents,
//     by one ⟨origin, candidate⟩ predicate test in ApplyStep or by the
//     root, and the tabled algorithm makes those tests too. Recomputing
//     where a table would look up therefore multiplies the work by at most
//     |Q|.
// And such a cell is almost never read back: a ⟨node, position, size⟩
// recurs only when a node is reached again at the same rank of a candidate
// list of the same size.
//
// Why a position test in a boolean position may skip the tables and the
// Value interpreter altogether:
//   * A position test (ExprTraits::position_test: number literals,
//     position(), last(), unary minus, arithmetic, comparisons of two
//     numbers, true()/false(), and/or/not() over booleans) reads no node
//     and no table: its value is a function of ⟨position, size⟩ alone.
//   * Evaluating it directly on doubles (xpath::PositionNumber /
//     PositionBoolean) costs O(|e|) per candidate, as the interpreter does;
//     that is the kFull argument above, with the literals' constant cells
//     recomputed too, which costs no more than reading them.
//   * So Truth answers it with no Value, no memo probe and no cell, in
//     standalone and staged runs alike, and counts it as one evaluation.
//     In a predicate a number is a position test; elsewhere it converts
//     with boolean(). NaiveEvaluator keeps the generic path as the oracle.
//
// Why a Core condition in a boolean position may be one bit test:
//   * A Core condition (a Def 2.5 bexpr: and/or/not() over location paths
//     whose predicates are bexprs) depends on the context node at most,
//     and its node-keyed table, read as truth values, is exactly its
//     condition set: the nodes where it holds.
//   * CoreLinearEvaluator fills that set for all nodes at once, bottom-up,
//     in O(|D|·|e|) (Prop 2.7's set-at-a-time reading, Thm 7.2), which is
//     the eager fill of the same table at linear rather than polynomial
//     cost.
//   * In a boolean position (an operand of and/or, the argument of not()
//     or boolean(), a predicate) only that truth value is read, never the
//     node set. So when the staged executor hands this engine the linear
//     engine bound to the same document and query (UseConditionSets), each
//     such test reads one bit of the set, built on the first test that
//     asks for it; the expression's own table stays empty. The standalone
//     engine (no linear engine) keeps the per-node tables of [3].
//
// Any other expression in a boolean position that already has a cell is
// read in place: Truth converts the cell, where Eval would copy its Value
// (a node set's whole vector) out of the table first.

#ifndef GKX_EVAL_CVT_EVALUATOR_HPP_
#define GKX_EVAL_CVT_EVALUATOR_HPP_

#include <optional>
#include <unordered_map>
#include <vector>

#include "eval/recursive_base.hpp"

namespace gkx::eval {

class CoreLinearEvaluator;

class CvtEvaluator : public RecursiveEvaluatorBase {
 public:
  struct Options {
    /// Eager = fill each node-dependent table for all |D| contexts bottom-up
    /// before answering (paper-faithful); lazy = memoize on demand.
    bool eager = false;
  };

  CvtEvaluator() = default;
  explicit CvtEvaluator(Options options) : options_(options) {}

  std::string_view name() const override {
    return options_.eager ? "cvt-eager" : "cvt-lazy";
  }

  /// Total entries stored across all tables by the last Evaluate call.
  int64_t last_table_entries() const { return table_entries_; }

  /// Answers every Core condition in a boolean position from `linear`'s
  /// condition sets (see the header comment); nullptr restores per-node
  /// evaluation. While set, `linear` must be bound to the document this
  /// engine evaluates, with no condition set of another query cached. The
  /// staged executor sets it for one run (plan/exec.hpp).
  void UseConditionSets(CoreLinearEvaluator* linear) { conditions_ = linear; }

 protected:
  Status Prepare() override;
  Result<bool> Truth(const xpath::Expr& expr, const Context& ctx,
                     bool predicate) override;
  bool LookupMemo(const xpath::Expr& expr, const Context& ctx,
                  Value* out) override;
  void StoreMemo(const xpath::Expr& expr, const Context& ctx,
                 const Value& value) override;

 private:
  /// The tabled cell of `expr` at `ctx`, or nullptr when there is none.
  const Value* Cell(const xpath::Expr& expr, const Context& ctx) const;

  Options options_{};
  // Per expression id: one of the two table shapes (selected by the
  // expression's context dependence); kFull expressions use none. Every
  // Bind rebuilds them, so they hold one run's cells.
  std::vector<std::optional<Value>> constant_;
  std::vector<std::unordered_map<xml::NodeId, Value>> by_node_;
  int64_t table_entries_ = 0;
  CoreLinearEvaluator* conditions_ = nullptr;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CVT_EVALUATOR_HPP_
