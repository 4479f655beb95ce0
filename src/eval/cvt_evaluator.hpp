// The context-value-table evaluator — the paper's polynomial-time
// combined-complexity algorithm ([3], recalled in Prop 2.7 and Thms 7.2/7.3).
//
// Every subexpression owns a table from *meaningful contexts* to values.
// Static analysis decides what a context is for each subexpression:
//   * constants and absolute paths        -> a single cell,
//   * anything position()/last()-free     -> keyed by the context node,
//   * position()/last()-dependent         -> keyed by ⟨node, pos, size⟩.
// Tables are filled on demand (lazy mode) or by a bottom-up pass over all
// nodes (eager mode — the literal bottom-up algorithm of [3]; tables for
// position-dependent predicates are always demand-filled with exactly the
// contexts that arise, which is the paper's "one tuple for each meaningful
// context"). Both modes share the semantics kernel of RecursiveEvaluatorBase,
// so they agree with the naive evaluator by construction; the complexity
// drops from exponential to polynomial because each (expression, context)
// pair is computed at most once.

#ifndef GKX_EVAL_CVT_EVALUATOR_HPP_
#define GKX_EVAL_CVT_EVALUATOR_HPP_

#include <optional>
#include <unordered_map>
#include <vector>

#include "eval/recursive_base.hpp"

namespace gkx::eval {

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

 protected:
  Status Prepare() override;
  bool LookupMemo(const xpath::Expr& expr, const Context& ctx,
                  Value* out) override;
  void StoreMemo(const xpath::Expr& expr, const Context& ctx,
                 const Value& value) override;

 private:
  Options options_{};
  xpath::QueryAnalysis analysis_;
  // Per expression id: one of the three table shapes (selected by the
  // expression's context dependence).
  std::vector<std::optional<Value>> constant_;
  std::vector<std::unordered_map<xml::NodeId, Value>> by_node_;
  // Position-dependent cells are keyed by the full ⟨node, position, size⟩,
  // so every context a document can produce has a cell.
  std::vector<std::unordered_map<Context, Value, ContextHash>> by_context_;
  int64_t table_entries_ = 0;
  // Binding the evaluator is idempotent: when Bind sees the exact same
  // (document, query) pair — identified by (address, serial) on both sides,
  // so recycled allocations can't alias — Prepare keeps the filled tables.
  // Cell values are pure functions of (expression, context) over an
  // immutable document, so a warm table returns byte-identical answers; a
  // long-lived engine re-running the same plan pays the memo fills once.
  // Any mismatch rebuilds everything.
  const xml::Document* bound_doc_ = nullptr;
  uint64_t bound_doc_serial_ = 0;
  const xpath::Query* bound_query_ = nullptr;
  uint64_t bound_query_serial_ = 0;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_CVT_EVALUATOR_HPP_
