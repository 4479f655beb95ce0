// The NAuxPDA-based evaluator of Lemma 5.4 / Theorem 5.5 (extended to pXPath
// per Theorem 6.2 and to bounded-depth negation per Theorems 5.9/6.3).
//
// The nondeterministic automaton traverses the query tree guessing a context
// and result per node and verifying the local consistency conditions of
// Table 1. This deterministic simulation replaces guesses by memoized
// searches: Singleton-Success(Q, ⟨n,p,s⟩, v) — "does Q on context ⟨n,p,s⟩
// evaluate to v / contain v?" — is decided compositionally, and full
// node-set evaluation loops the check over dom (Thm 5.5). The paper's key
// space observation is preserved: for a step χ::t[e] the candidate set Y is
// never materialized; membership of r, its position in Y, and |Y| are
// computed by streaming over the axis (AxisPositionOf).
//
// Supported fragment: pWF ∪ pXPath syntax — paths/unions, and/or,
// relational operators without boolean operands, arithmetic, position()/
// last(), number and string literals, boolean(), concat(), contains(),
// starts-with(), true()/false() — plus not() up to the configured depth
// (0 = reject all negation). Everything else returns kUnsupported.

#ifndef GKX_EVAL_PDA_EVALUATOR_HPP_
#define GKX_EVAL_PDA_EVALUATOR_HPP_

#include <cstdint>
#include <unordered_map>

#include "eval/evaluator.hpp"

namespace gkx::eval {

/// Per-run counters for the Table 1 consistency-check rows — the
/// Table 1 section of bench_paper reports how often each row fires.
struct Table1Stats {
  int64_t locstep = 0;        // χ::t (last step, no predicate)
  int64_t step_predicate = 0; // χ::t[e]
  int64_t composition = 0;    // π1/π2 (intermediate-node search)
  int64_t union_branch = 0;   // π1|π2
  int64_t root_path = 0;      // /π
  int64_t position_fn = 0;    // position()
  int64_t last_fn = 0;        // last()
  int64_t constant = 0;       // number/string literal
  int64_t boolean_fn = 0;     // boolean(π)
  int64_t and_op = 0;         // e1 and e2
  int64_t or_op = 0;          // e1 or e2
  int64_t relop = 0;          // e1 RelOp e2
  int64_t arithop = 0;        // e1 ArithOp e2
  int64_t not_loop = 0;       // not(π) dom-loops (Thm 5.9 extension)

  int64_t Total() const {
    return locstep + step_predicate + composition + union_branch + root_path +
           position_fn + last_fn + constant + boolean_fn + and_op + or_op +
           relop + arithop + not_loop;
  }
};

class PdaEvaluator : public Evaluator {
 public:
  struct Options {
    /// Maximum not() nesting depth accepted (Theorem 5.9/6.3 extension);
    /// 0 rejects all negation (pure pWF/pXPath).
    int max_not_depth = 0;
  };

  PdaEvaluator() = default;
  explicit PdaEvaluator(Options options) : options_(options) {}

  std::string_view name() const override { return "pda"; }

  Result<Value> Evaluate(const xml::Document& doc, const xpath::Query& query,
                         const Context& ctx) override;

  /// Singleton-Success for one candidate result node (Definition 5.3 with a
  /// node-set query): does Q on (doc, ctx) select `candidate`?
  /// Thread-compatible with other instances (used by the parallel engine).
  Result<bool> CheckCandidate(const xml::Document& doc,
                              const xpath::Query& query, const Context& ctx,
                              xml::NodeId candidate);

  const Table1Stats& last_stats() const { return stats_; }

 private:
  Status Bind(const xml::Document& doc, const xpath::Query& query);

  /// Does node-set expression `expr` from context node n contain r?
  Result<bool> CheckSingleton(const xpath::Expr& expr, xml::NodeId n,
                              xml::NodeId r);
  Result<bool> CheckPathSuffix(const xpath::PathExpr& path, size_t step_index,
                               xml::NodeId n, xml::NodeId r);
  Result<bool> CheckStepTo(const xpath::Step& step, xml::NodeId n, xml::NodeId r);

  /// ∃r ∈ dom: CheckSingleton(expr, n, r) — exists-semantics of conditions.
  Result<bool> ExistsMatch(const xpath::Expr& expr, xml::NodeId n);

  // Negation depth is gated statically (analysis.max_not_depth must not
  // exceed options.max_not_depth), so no budget needs threading here.
  Result<bool> EvalBoolean(const xpath::Expr& expr, const Context& ctx);
  Result<double> EvalNumber(const xpath::Expr& expr, const Context& ctx);
  Result<Value> EvalScalar(const xpath::Expr& expr, const Context& ctx);
  Result<bool> EvalRelop(const xpath::BinaryExpr& binary, const Context& ctx);

  Options options_{};
  const xml::Document* doc_ = nullptr;
  const xpath::Query* query_ = nullptr;
  std::vector<ResolvedTest> tests_;  // by step id
  Table1Stats stats_;

  // Memoization: deterministic search must not revisit states, or the
  // NAuxPDA's polynomial time bound is lost.
  std::unordered_map<uint64_t, bool> suffix_memo_;  // (step id, n, r)
  std::unordered_map<uint64_t, bool> exists_memo_;  // (expr id, n)
  // boolean memo: per expression id, keyed by packed context (exact keys —
  // no hash-combining that could collide across states).
  std::vector<std::unordered_map<uint64_t, bool>> boolean_memo_;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_PDA_EVALUATOR_HPP_
