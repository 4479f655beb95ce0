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
//   * Evaluating it directly on doubles (xpath::PositionBlock) costs
//     O(|e|) per candidate, as the interpreter does; that is the kFull
//     argument above, with the literals' constant cells recomputed too,
//     which costs no more than reading them.
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
//
// Why a staged step may run over its whole frontier at once (StepImage),
// as Prop 2.7's set-at-a-time reading maps a set of context nodes through
// each location step:
//   * A step's image is the union over origins of each origin's survivors,
//     and a predicate that reads neither position() nor last() and is not
//     a number has one truth value per node. So the axis image of the
//     frontier ∩ the test set holds every origin's candidates, and the
//     leading such predicates filter that set once: a Core condition with
//     one AND against its condition set, any other one with one Truth per
//     node at ⟨v, 1, 1⟩, which reads the same node-keyed cell every origin
//     would. Each node they test is a candidate of some origin, the
//     interpreter tests it too, so an error surfaces where it does there.
//   * From the first position-dependent predicate on, a position is a rank
//     in one origin's candidate list, so the step works per origin: the
//     candidates are read off the filtered set in axis order, and each
//     remaining predicate is evaluated once for the whole list. [k] and
//     [last()] select by index, a Core condition is a bit gather,
//     and/or/not() combine their operands' columns, evaluating the right
//     operand only where the left one did not decide, and anything else is
//     one Truth per candidate. A position test is a mask over positions
//     1..size, computed column-wise on doubles in blocks of
//     PositionBlock::kLanes. Origins share small list sizes (on the served
//     pool 95% of the masks asked for are of a list of at most 64 whose
//     mask the run already computed), so such a mask is kept per
//     (expression, size), one word each and 64 per expression at most; a
//     longer one goes into a column that the next origin reuses.
//   * So each ⟨origin, candidate⟩ pair is still visited at most once, as
//     ApplyStep visits it, and each position test is evaluated at most once
//     per pair, as the per-origin loop evaluates it: Prop 2.7's polynomial
//     bound holds. The survivors go straight into the output bitset, with
//     no per-origin node set to sort, merge or convert.
// The standalone engine (Evaluate: the paper census, cvt-eager, a scalar
// root, and every path nested inside a predicate) keeps the per-origin
// ApplyStep of [3].

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

  /// Maps `frontier` through `step` of the bound query set-at-a-time (see
  /// the header comment): the image holds every node the step selects from
  /// some member of `frontier`. The staged executor runs each cvt step
  /// through here, after Bind and with the condition sets in use.
  Result<NodeBitset> StepImage(const xpath::Step& step,
                               const NodeBitset& frontier);

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

  /// Applies `predicate` to one origin's candidate list (axis order),
  /// keeping the survivors in order, so positions re-rank for the next one.
  Status FilterCandidates(const xpath::Expr& predicate,
                          std::vector<xml::NodeId>* list);

  /// The truth of `expr` in a boolean position at ⟨list[i], i + 1, |list|⟩
  /// for every bit i of `where`, as bits of `out` (clear outside `where`);
  /// see the header comment. Its temporaries take column slots from `slot`
  /// up.
  Status TruthColumn(const xpath::Expr& expr, bool predicate,
                     const std::vector<xml::NodeId>& list,
                     const uint64_t* where, uint64_t* out, size_t slot);

  /// The truth of position test `expr` at positions 1..size of a list of
  /// `size`, one bit per position, into the (size + 63) / 64 words at `out`;
  /// the one-word masks of lists of at most 64 are kept for the run.
  void PositionMask(const xpath::Expr& expr, bool predicate, int64_t size,
                    uint64_t* out);

  /// Column slot `slot`, sized to `words` words.
  uint64_t* Column(size_t slot, size_t words);

  Options options_{};
  // Per expression id: one of the two table shapes (selected by the
  // expression's context dependence); kFull expressions use none. Every
  // Bind rebuilds them, so they hold one run's cells.
  std::vector<std::optional<Value>> constant_;
  std::vector<std::unordered_map<xml::NodeId, Value>> by_node_;
  int64_t table_entries_ = 0;
  CoreLinearEvaluator* conditions_ = nullptr;

  // Staged steps (StepImage), for one run like the tables. Bit size - 1 of
  // small_known_[id] is set once small_masks_[id * 64 + size - 1] holds
  // expression id's mask for a list of size ≤ 64, so the memory is 64 words
  // per expression at most.
  std::vector<uint64_t> small_known_;
  std::vector<uint64_t> small_masks_;
  xpath::PositionBlock position_block_;
  // One origin's candidates, and the truth columns over them by slot. A
  // slot's words stay put while later slots are added: growing the outer
  // vector moves the inner ones, not their buffers.
  std::vector<xml::NodeId> candidates_;
  std::vector<std::vector<uint64_t>> columns_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CVT_EVALUATOR_HPP_
