#include "xpath/optimize.hpp"

#include <optional>
#include <utility>
#include <vector>

#include "xpath/analysis.hpp"
#include "xpath/build.hpp"

namespace gkx::xpath {
namespace {

/// Matches a node test that accepts every element (node() — and '*', which
/// is equivalent in an element-only data model).
bool MatchesEverything(const NodeTest& test) {
  return test.kind == NodeTest::Kind::kNode || test.kind == NodeTest::Kind::kAny;
}

/// True if dropping/merging would be observable through this predicate:
/// positional predicates count against the candidate list, which fusion
/// changes ( //para[1] is NOT /descendant::para[1] ).
bool PredicateIsPositional(const QueryAnalysis& analysis, const Expr& predicate) {
  const ExprTraits& traits = analysis.traits(predicate);
  return traits.uses_position || traits.uses_last ||
         StaticType(predicate) == ValueType::kNumber;
}

bool StepHasPositionalPredicate(const QueryAnalysis& analysis, const Step& step) {
  for (const ExprPtr& predicate : step.predicates) {
    if (PredicateIsPositional(analysis, *predicate)) return true;
  }
  return false;
}

/// [position() >= 1] and [position() <= last()] are tautologies that also
/// keep the re-ranking identity, so they can be dropped.
bool PredicateIsPositionTautology(const Expr& predicate) {
  if (predicate.kind() != Expr::Kind::kBinary) return false;
  const auto& binary = predicate.As<BinaryExpr>();
  auto is_position = [](const Expr& e) {
    return e.kind() == Expr::Kind::kFunctionCall &&
           e.As<FunctionCall>().function() == Function::kPosition;
  };
  auto is_last = [](const Expr& e) {
    return e.kind() == Expr::Kind::kFunctionCall &&
           e.As<FunctionCall>().function() == Function::kLast;
  };
  auto is_one = [](const Expr& e) {
    return e.kind() == Expr::Kind::kNumberLiteral &&
           e.As<NumberLiteral>().value() == 1.0;
  };
  if (binary.op() == BinaryOp::kGe && is_position(binary.lhs()) &&
      is_one(binary.rhs())) {
    return true;  // position() >= 1
  }
  if (binary.op() == BinaryOp::kLe && is_position(binary.lhs()) &&
      is_last(binary.rhs())) {
    return true;  // position() <= last()
  }
  return false;
}

class Optimizer {
 public:
  Optimizer(const QueryAnalysis& analysis, OptimizeStats* stats)
      : analysis_(analysis), stats_(stats) {}

  ExprPtr Rewrite(const Expr& expr) {
    switch (expr.kind()) {
      case Expr::Kind::kNumberLiteral:
      case Expr::Kind::kStringLiteral:
        return build::CloneExpr(expr);
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<BinaryExpr>();
        return build::Binary(binary.op(), Rewrite(binary.lhs()),
                             Rewrite(binary.rhs()));
      }
      case Expr::Kind::kNegate:
        return build::Negate(Rewrite(expr.As<NegateExpr>().operand()));
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<FunctionCall>();
        std::vector<ExprPtr> args;
        args.reserve(call.arg_count());
        for (size_t i = 0; i < call.arg_count(); ++i) {
          args.push_back(Rewrite(call.arg(i)));
        }
        return build::Call(call.function(), std::move(args));
      }
      case Expr::Kind::kPath:
        return RewritePath(expr.As<PathExpr>());
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<UnionExpr>();
        std::vector<ExprPtr> branches;
        for (size_t i = 0; i < u.branch_count(); ++i) {
          ExprPtr branch = Rewrite(u.branch(i));
          if (branch->kind() == Expr::Kind::kUnion) {
            // Splice nested unions (associativity).
            auto* nested = static_cast<UnionExpr*>(branch.get());
            for (size_t j = 0; j < nested->branch_count(); ++j) {
              branches.push_back(build::CloneExpr(nested->branch(j)));
            }
            if (stats_ != nullptr) ++stats_->unwrapped_unions;
          } else {
            branches.push_back(std::move(branch));
          }
        }
        GKX_CHECK_GE(branches.size(), 2u);
        return build::Union(std::move(branches));
      }
    }
    GKX_CHECK(false);
    return nullptr;
  }

 private:
  Step RewriteStep(const Step& step) {
    std::vector<ExprPtr> predicates;
    for (const ExprPtr& predicate : step.predicates) {
      // A boolean position test that reads neither position() nor last()
      // has one value at every context: true keeps every candidate, and so
      // the re-ranking too; false rejects them all. A constant number is a
      // position test of another kind ([3] is [position() = 3]), and stays.
      const ExprTraits& traits = analysis_.traits(*predicate);
      std::optional<bool> constant;
      if (traits.position_test && traits.type == ValueType::kBoolean &&
          !traits.uses_position && !traits.uses_last) {
        constant = position_block_.Truth(*predicate, /*predicate=*/true,
                                         /*position=*/1, /*size=*/1);
      }
      if (constant == true || PredicateIsPositionTautology(*predicate)) {
        if (stats_ != nullptr) ++stats_->dropped_predicates;
        continue;
      }
      if (constant == false) {
        const bool spelled_false =
            predicate->kind() == Expr::Kind::kFunctionCall &&
            predicate->As<FunctionCall>().function() == Function::kFalse;
        if (!spelled_false && stats_ != nullptr) ++stats_->folded_predicates;
        predicates.push_back(build::Call(Function::kFalse));
        continue;
      }
      predicates.push_back(Rewrite(*predicate));
    }
    return build::MakeStep(step.axis, step.test, std::move(predicates));
  }

  ExprPtr RewritePath(const PathExpr& path) {
    // First pass: rewrite steps (predicates simplified).
    std::vector<Step> steps;
    std::vector<const Step*> originals;  // for positional checks
    steps.reserve(path.step_count());
    for (size_t i = 0; i < path.step_count(); ++i) {
      steps.push_back(RewriteStep(path.step(i)));
      originals.push_back(&path.step(i));
    }

    // Second pass: fuse / drop, left to right.
    std::vector<Step> fused;
    std::vector<const Step*> fused_originals;
    for (size_t i = 0; i < steps.size(); ++i) {
      Step& step = steps[i];
      const Step* original = originals[i];
      // descendant-or-self::node() (no predicates) + following child/
      // descendant step without positional predicates fuses to descendant.
      if (step.axis == Axis::kDescendantOrSelf && MatchesEverything(step.test) &&
          step.predicates.empty() && i + 1 < steps.size()) {
        Step& next = steps[i + 1];
        const bool fusable_axis =
            next.axis == Axis::kChild || next.axis == Axis::kDescendant;
        if (fusable_axis &&
            !StepHasPositionalPredicate(analysis_, *originals[i + 1])) {
          next.axis = Axis::kDescendant;
          if (stats_ != nullptr) ++stats_->fused_steps;
          continue;  // drop the d-o-s step; `next` handled next iteration
        }
      }
      // self::node() with no predicates is the identity step.
      if (step.axis == Axis::kSelf && MatchesEverything(step.test) &&
          step.predicates.empty()) {
        const bool other_steps_exist =
            !fused.empty() || i + 1 < steps.size() || path.absolute();
        if (other_steps_exist) {
          if (stats_ != nullptr) ++stats_->dropped_self_steps;
          continue;
        }
      }
      fused.push_back(std::move(step));
      fused_originals.push_back(original);
    }
    if (fused.empty() && !path.absolute()) {
      fused.push_back(build::MakeStep(Axis::kSelf, NodeTest::AllNodes()));
    }
    return build::Path(path.absolute(), std::move(fused));
  }

  const QueryAnalysis& analysis_;
  OptimizeStats* stats_;
  PositionBlock position_block_;
};

}  // namespace

Query Optimize(const Query& query, OptimizeStats* stats) {
  Optimizer optimizer(query.analysis(), stats);
  return Query::Create(optimizer.Rewrite(query.root()));
}

}  // namespace gkx::xpath
