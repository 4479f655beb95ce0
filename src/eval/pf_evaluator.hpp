// The PF (predicate-free paths) specialist — the membership half of
// Theorem 4.3: "we can just guess the path while we verify it in L". The
// nondeterministic log-space machine guesses one axis edge per step;
// deterministically that is a frontier sweep — one bitset image per step,
// O(|D|) each, O(|D|·|Q|) total and only two bitsets of working memory.
// Rejects anything with predicates (kUnsupported): this engine exists to
// make the NL upper bound tangible, not to compete with core-linear.

#ifndef GKX_EVAL_PF_EVALUATOR_HPP_
#define GKX_EVAL_PF_EVALUATOR_HPP_

#include "eval/evaluator.hpp"

namespace gkx::eval {

class PfEvaluator : public Evaluator {
 public:
  std::string_view name() const override { return "pf-frontier"; }

  Result<Value> Evaluate(const xml::Document& doc, const xpath::Query& query,
                         const Context& ctx) override;
};

}  // namespace gkx::eval

#endif  // GKX_EVAL_PF_EVALUATOR_HPP_
