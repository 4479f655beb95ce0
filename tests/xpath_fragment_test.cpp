// Static analysis, fragment classification (the Figure 1 taxonomy), and the
// query transforms (Remark 5.2 normalization, Theorem 5.9 de Morgan
// pushdown).

#include <gtest/gtest.h>

#include "xpath/analysis.hpp"
#include "xpath/fragment.hpp"
#include "xpath/generator.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"
#include "xpath/transform.hpp"

namespace gkx::xpath {
namespace {

QueryAnalysis AnalysisOf(std::string_view text) {
  return MustParse(text).analysis();
}

TEST(AnalysisTest, DependenceClasses) {
  Query q = MustParse("child::a[position() = 2]/child::b[self::c]");
  const QueryAnalysis& analysis = q.analysis();
  // The whole path depends on the context node only (positions rebind).
  EXPECT_EQ(analysis.traits(q.root()).dependence, ContextDependence::kNode);
  // Inside the first predicate, position()=2 depends on the full context.
  const Step& first = q.root().As<PathExpr>().step(0);
  EXPECT_EQ(analysis.traits(*first.predicates[0]).dependence,
            ContextDependence::kFull);
}

TEST(AnalysisTest, AbsolutePathIsContextFree) {
  Query q = MustParse("/descendant::a");
  const QueryAnalysis& analysis = q.analysis();
  EXPECT_EQ(analysis.traits(q.root()).dependence, ContextDependence::kNone);
}

TEST(AnalysisTest, LiteralsAreContextFree) {
  Query q = MustParse("1 + 2");
  EXPECT_EQ(q.analysis().traits(q.root()).dependence, ContextDependence::kNone);
}

TEST(AnalysisTest, ZeroArgStringFunctionsDependOnNode) {
  Query q = MustParse("string-length() = 3");
  EXPECT_EQ(q.analysis().traits(q.root()).dependence, ContextDependence::kNode);
}

TEST(AnalysisTest, DependenceGoldens) {
  constexpr auto kNone = ContextDependence::kNone;
  constexpr auto kNode = ContextDependence::kNode;
  constexpr auto kFull = ContextDependence::kFull;
  struct Golden {
    const char* text;
    ContextDependence dependence;
  };
  const Golden goldens[] = {
      {"1 + 2", kNone},
      {"/descendant::a", kNone},
      {"child::a", kNode},
      {"child::a | /child::b", kNode},
      {"string-length() = 3", kNode},
      {"name()", kNode},
      {"position() + 1 = last()", kFull},
      {"last() - 3 + last() > position() + position() + position()", kFull},
      {"concat(position(), 'x')", kFull},
      {"string-length('ab') = position()", kFull},
      {"child::* and position() + 1 = last()", kFull},
      {"position() = count(/descendant::a)", kFull},
      {"number() = position()", kFull},
      {"local-name() = 'a' or position() = 2", kFull},
  };
  for (const Golden& golden : goldens) {
    Query q = MustParse(golden.text);
    EXPECT_EQ(q.analysis().traits(q.root()).dependence, golden.dependence)
        << golden.text;
  }
  // A step rebinds the context: its position-dependent predicate does not
  // make the path position-dependent.
  Query q = MustParse("child::a[position() * 2 > last()]");
  const QueryAnalysis& analysis = q.analysis();
  EXPECT_EQ(analysis.traits(q.root()).dependence, kNode);
  const Step& step = q.root().As<PathExpr>().step(0);
  EXPECT_EQ(analysis.traits(*step.predicates[0]).dependence, kFull);
}

TEST(AnalysisTest, PositionTestGoldens) {
  // Number literals, position(), last(), unary minus, arithmetic on
  // numbers, comparisons of two numbers, true()/false() and and/or/not()
  // over booleans: a function of the context's position and size alone.
  struct Golden {
    const char* text;
    bool position_test;
  };
  const Golden goldens[] = {
      {"last() - 3 + last() > position()", true},
      {"not(1 >= last())", true},
      {"2 + 1", true},
      {"true()", true},
      {"-position() mod 0 != 1 div 0 or false()", true},
      {"position() and child::t1", false},
      {"string-length('ab') > position()", false},
      {"count(child::*) = last()", false},
      {"(1 < 2) = true()", false},
      {"not(position())", false},
      {"1 and true()", false},
  };
  for (const Golden& golden : goldens) {
    Query q = MustParse(golden.text);
    EXPECT_EQ(q.analysis().traits(q.root()).position_test, golden.position_test)
        << golden.text;
  }
  // In a mixed predicate each operand keeps its own trait: the Core path
  // is a Core condition, the arithmetic a position test.
  Query q = MustParse("child::a[child::b or position() + 1 = last()]");
  const QueryAnalysis& analysis = q.analysis();
  const auto& mixed =
      q.root().As<PathExpr>().step(0).predicates[0]->As<BinaryExpr>();
  EXPECT_FALSE(analysis.traits(mixed).position_test);
  EXPECT_TRUE(analysis.traits(mixed.lhs()).core_condition);
  EXPECT_FALSE(analysis.traits(mixed.lhs()).position_test);
  EXPECT_TRUE(analysis.traits(mixed.rhs()).position_test);
}

TEST(AnalysisTest, PredicateCounts) {
  EXPECT_EQ(AnalysisOf("a[b][c][d]").max_predicates_per_step, 3);
  EXPECT_EQ(AnalysisOf("a[b]/c[d]").max_predicates_per_step, 1);
  EXPECT_EQ(AnalysisOf("a/b").max_predicates_per_step, 0);
}

TEST(AnalysisTest, NotDepth) {
  EXPECT_EQ(AnalysisOf("a[not(b)]").max_not_depth, 1);
  EXPECT_EQ(AnalysisOf("a[not(b[not(c)])]").max_not_depth, 2);
  EXPECT_EQ(AnalysisOf("a[not(b) and not(c)]").max_not_depth, 1);
  EXPECT_EQ(AnalysisOf("a[b]").max_not_depth, 0);
}

TEST(AnalysisTest, ArithDepth) {
  EXPECT_EQ(AnalysisOf("1 + 2").max_arith_depth, 1);
  EXPECT_EQ(AnalysisOf("1 + 2 * 3").max_arith_depth, 2);
  EXPECT_EQ(AnalysisOf("position() = 2").max_arith_depth, 0);
  EXPECT_EQ(AnalysisOf("-(1 + 2 * 3)").max_arith_depth, 3);
}

TEST(AnalysisTest, ConcatMeasures) {
  QueryAnalysis a = AnalysisOf("concat('a', concat('b', 'c', 'd'))");
  EXPECT_EQ(a.max_concat_depth, 2);
  EXPECT_EQ(a.max_concat_arity, 3);
}

TEST(AnalysisTest, RelopOperandTyping) {
  EXPECT_TRUE(AnalysisOf("boolean(a) = true()").relop_with_boolean_operand);
  EXPECT_FALSE(AnalysisOf("position() = 2").relop_with_boolean_operand);
  EXPECT_TRUE(AnalysisOf("child::a = 'x'").relop_with_nonnumber_operand);
  EXPECT_FALSE(AnalysisOf("1 < 2").relop_with_nonnumber_operand);
}

TEST(AnalysisTest, AxisCensus) {
  QueryAnalysis a = AnalysisOf("ancestor::x/child::y");
  EXPECT_TRUE(a.axes_used[static_cast<size_t>(Axis::kAncestor)]);
  EXPECT_TRUE(a.axes_used[static_cast<size_t>(Axis::kChild)]);
  EXPECT_FALSE(a.axes_used[static_cast<size_t>(Axis::kFollowing)]);
}

// --- fragment classification ---

Fragment SmallestOf(std::string_view text) {
  Query q = MustParse(text);
  return Classify(q).smallest;
}

TEST(FragmentTest, PF) {
  EXPECT_EQ(SmallestOf("/descendant::a/child::b"), Fragment::kPF);
  EXPECT_EQ(SmallestOf("a/b | c"), Fragment::kPF);
  EXPECT_EQ(SmallestOf("ancestor-or-self::*"), Fragment::kPF);
}

TEST(FragmentTest, PositiveCore) {
  EXPECT_EQ(SmallestOf("child::a[descendant::b]"), Fragment::kPositiveCore);
  EXPECT_EQ(SmallestOf("a[b and c or d]"), Fragment::kPositiveCore);
  // Iterated predicates are fine in (positive) Core XPath (Def 2.5).
  EXPECT_EQ(SmallestOf("a[b][c]"), Fragment::kPositiveCore);
}

TEST(FragmentTest, CoreWithNegation) {
  EXPECT_EQ(SmallestOf("child::a[not(child::b)]"), Fragment::kCore);
  EXPECT_EQ(SmallestOf(
                "/descendant-or-self::*[self::R and not(child::*[self::I1])]"),
            Fragment::kCore);
}

TEST(FragmentTest, PWF) {
  EXPECT_EQ(SmallestOf("child::a[position() + 1 = last()]"), Fragment::kPWF);
  EXPECT_EQ(SmallestOf("a[2]"), Fragment::kPWF);  // numeric predicate
  EXPECT_EQ(SmallestOf("a[position() = 2 and child::b]"), Fragment::kPWF);
}

TEST(FragmentTest, WF) {
  // Negation with arithmetic: Wadler fragment but not Core, not pWF.
  EXPECT_EQ(SmallestOf("a[not(position() = 2)]"), Fragment::kWF);
  // Iterated predicates with position(): not pWF (Def 5.1 restriction 1).
  EXPECT_EQ(SmallestOf("a[position() = 2][last() = 3]"), Fragment::kWF);
}

TEST(FragmentTest, PXPath) {
  EXPECT_EQ(SmallestOf("a[concat('x', 'y') = 'xy']"), Fragment::kPXPath);
  EXPECT_EQ(SmallestOf("a[boolean(child::b)]"), Fragment::kPXPath);
  EXPECT_EQ(SmallestOf("a[contains('abc', 'b')]"), Fragment::kPXPath);
}

TEST(FragmentTest, FullXPathOnly) {
  // count() is excluded from pXPath (Def 6.1 restriction 2).
  EXPECT_EQ(SmallestOf("a[count(child::b) = 2]"), Fragment::kFullXPath);
  // Relop with boolean operand (restriction 3).
  EXPECT_EQ(SmallestOf("a[boolean(b) != true()]"), Fragment::kFullXPath);
  // not() plus string functions.
  EXPECT_EQ(SmallestOf("a[not(string(b) = 'x')]"), Fragment::kFullXPath);
}

TEST(FragmentTest, InclusionChain) {
  // Figure 1 inclusions: PF ⊂ posCore ⊂ {Core, pWF} ⊂ {WF, pXPath} ⊂ XPath.
  FragmentReport pf = Classify(MustParse("a/b"));
  EXPECT_TRUE(pf.in_pf && pf.in_positive_core && pf.in_core && pf.in_pwf &&
              pf.in_wf && pf.in_pxpath);
  FragmentReport pos = Classify(MustParse("a[b]"));
  EXPECT_TRUE(!pos.in_pf && pos.in_positive_core && pos.in_core && pos.in_pwf &&
              pos.in_wf && pos.in_pxpath);
  FragmentReport core = Classify(MustParse("a[not(b)]"));
  EXPECT_TRUE(core.in_core && core.in_wf && !core.in_pwf && !core.in_pxpath);
  FragmentReport pwf = Classify(MustParse("a[position() = 2]"));
  EXPECT_TRUE(pwf.in_pwf && pwf.in_wf && pwf.in_pxpath && !pwf.in_core);
}

TEST(FragmentTest, ArithNestingBound) {
  ClassifyOptions tight;
  tight.nesting_bound = 1;
  Query q = MustParse("a[position() + 1 + 1 = 3]");
  EXPECT_FALSE(Classify(q, tight).in_pwf);
  EXPECT_TRUE(Classify(q).in_pwf);  // default bound is generous
}

TEST(FragmentTest, ComplexityStrings) {
  EXPECT_NE(FragmentComplexity(Fragment::kPF).find("NL-complete"),
            std::string_view::npos);
  EXPECT_NE(FragmentComplexity(Fragment::kPositiveCore).find("LOGCFL"),
            std::string_view::npos);
  EXPECT_NE(FragmentComplexity(Fragment::kCore).find("P-complete"),
            std::string_view::npos);
  EXPECT_NE(FragmentComplexity(Fragment::kFullXPath).find("P-complete"),
            std::string_view::npos);
}

TEST(FragmentTest, ExplainFragmentsNamesExclusions) {
  const std::vector<std::string> notes =
      ExplainFragments(MustParse("a[not(b)]"));
  bool found = false;
  for (const std::string& note : notes) {
    if (note.find("not()") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  // One line per boundary crossed, in Classify's order; none for PF.
  EXPECT_EQ(ExplainFragments(MustParse("a[b][c]")),
            (std::vector<std::string>{
                "not PF: uses conditions",
                "not pWF: iterated predicates (Def 5.1 restriction 1)",
                "not pXPath: iterated predicates (Def 6.1 restriction 1)"}));
  EXPECT_TRUE(ExplainFragments(MustParse("/descendant::a/child::b")).empty());
}

// --- Paper's own example queries classify sensibly ---

TEST(FragmentTest, PaperExamples) {
  // §2.2 example.
  EXPECT_EQ(SmallestOf("/descendant::a/child::b"), Fragment::kPF);
  // §2.2 condition example (negation => Core XPath).
  EXPECT_EQ(SmallestOf("/descendant::a/child::b[descendant::c and "
                       "not(following-sibling::d)]"),
            Fragment::kCore);
  // §2.2 WF example: position() + 1 = last() — pWF (no negation, single
  // predicates, shallow arithmetic).
  EXPECT_EQ(SmallestOf("child::a[position() + 1 = last()]"), Fragment::kPWF);
}

// --- transforms ---

TEST(TransformTest, NormalizeIteratedPredicatesFolds) {
  Query q = MustParse("a[b][c]");
  Query normalized = NormalizeIteratedPredicates(q);
  EXPECT_EQ(ToXPathString(normalized), "child::a[child::b and child::c]");
  // Remark 5.2: a positive-Core query with iterated predicates lands in pWF
  // after normalization.
  EXPECT_TRUE(Classify(normalized).in_pwf);
}

TEST(TransformTest, NormalizeKeepsPositionalChains) {
  // [position()=1][b] may fold (first predicate positional is fine)...
  Query q1 = MustParse("a[position() = 1][b]");
  EXPECT_EQ(ToXPathString(NormalizeIteratedPredicates(q1)),
            "child::a[position() = 1 and child::b]");
  // ...but a later positional predicate observes re-ranking: must not fold.
  Query q2 = MustParse("a[b][position() = 1]");
  EXPECT_EQ(ToXPathString(NormalizeIteratedPredicates(q2)),
            "child::a[child::b][position() = 1]");
  // Numeric predicates never fold ([2] is an implicit position test).
  Query q3 = MustParse("a[2][b]");
  EXPECT_EQ(ToXPathString(NormalizeIteratedPredicates(q3)),
            "child::a[2][child::b]");
}

TEST(TransformTest, PushNegationsDownDeMorgan) {
  Query q = MustParse("a[not(b and c)]");
  Query pushed = PushNegationsDown(q);
  EXPECT_EQ(ToXPathString(pushed),
            "child::a[not(child::b) or not(child::c)]");
}

TEST(TransformTest, PushNegationsFlipsNumericComparisons) {
  Query q = MustParse("a[not(position() = 2)]");
  EXPECT_EQ(ToXPathString(PushNegationsDown(q)),
            "child::a[position() != 2]");
  Query q2 = MustParse("a[not(position() < last() or position() = 1)]");
  EXPECT_EQ(ToXPathString(PushNegationsDown(q2)),
            "child::a[position() >= last() and position() != 1]");
}

TEST(TransformTest, PushNegationsDoubleNegation) {
  Query q = MustParse("a[not(not(b))]");
  EXPECT_EQ(ToXPathString(PushNegationsDown(q)),
            "child::a[boolean(child::b)]");
}

TEST(TransformTest, PushNegationsKeepsNotOverPaths) {
  Query q = MustParse("a[not(b or not(c))]");
  EXPECT_EQ(ToXPathString(PushNegationsDown(q)),
            "child::a[not(child::b) and boolean(child::c)]");
}

// After PushNegationsDown, every surviving not() must wrap a location path
// (or union) — the normal form the Theorem 5.9 NAuxPDA extension relies on.
bool NotOnlyOverPaths(const Expr& expr) {
  switch (expr.kind()) {
    case Expr::Kind::kNumberLiteral:
    case Expr::Kind::kStringLiteral:
      return true;
    case Expr::Kind::kNegate:
      return NotOnlyOverPaths(expr.As<NegateExpr>().operand());
    case Expr::Kind::kBinary: {
      const auto& binary = expr.As<BinaryExpr>();
      return NotOnlyOverPaths(binary.lhs()) && NotOnlyOverPaths(binary.rhs());
    }
    case Expr::Kind::kFunctionCall: {
      const auto& call = expr.As<FunctionCall>();
      if (call.function() == Function::kNot) {
        const Expr::Kind kind = call.arg(0).kind();
        if (kind != Expr::Kind::kPath && kind != Expr::Kind::kUnion) {
          return false;
        }
      }
      for (size_t i = 0; i < call.arg_count(); ++i) {
        if (!NotOnlyOverPaths(call.arg(i))) return false;
      }
      return true;
    }
    case Expr::Kind::kPath: {
      const auto& path = expr.As<PathExpr>();
      for (size_t i = 0; i < path.step_count(); ++i) {
        for (const ExprPtr& predicate : path.step(i).predicates) {
          if (!NotOnlyOverPaths(*predicate)) return false;
        }
      }
      return true;
    }
    case Expr::Kind::kUnion: {
      const auto& u = expr.As<UnionExpr>();
      for (size_t i = 0; i < u.branch_count(); ++i) {
        if (!NotOnlyOverPaths(u.branch(i))) return false;
      }
      return true;
    }
  }
  return false;
}

TEST(TransformTest, PushNegationsNormalFormOnRandomCoreQueries) {
  // Core XPath random queries contain arbitrary nested not(); after the
  // rewrite, not() faces only location paths (number comparisons get
  // flipped, connectives get de-Morganed).
  Rng rng(509);
  RandomQueryOptions options;
  options.fragment = Fragment::kCore;
  options.max_condition_depth = 3;
  for (int i = 0; i < 60; ++i) {
    Query query = RandomQuery(&rng, options);
    Query pushed = PushNegationsDown(query);
    EXPECT_TRUE(NotOnlyOverPaths(pushed.root()))
        << ToXPathString(query) << "  =>  " << ToXPathString(pushed);
  }
  // Same for WF queries (numeric comparisons must flip away).
  options.fragment = Fragment::kWF;
  for (int i = 0; i < 60; ++i) {
    Query query = RandomQuery(&rng, options);
    Query pushed = PushNegationsDown(query);
    EXPECT_TRUE(NotOnlyOverPaths(pushed.root()))
        << ToXPathString(query) << "  =>  " << ToXPathString(pushed);
  }
}

// --- random query generator sanity: stays in its fragment ---

class GeneratorFragmentTest
    : public ::testing::TestWithParam<std::tuple<Fragment, uint64_t>> {};

TEST_P(GeneratorFragmentTest, GeneratedQueryIsInFragment) {
  auto [fragment, seed] = GetParam();
  Rng rng(seed);
  RandomQueryOptions options;
  options.fragment = fragment;
  options.max_predicates_per_step = 2;
  for (int i = 0; i < 25; ++i) {
    Query q = RandomQuery(&rng, options);
    FragmentReport report = Classify(q);
    EXPECT_TRUE(report.Contains(fragment))
        << FragmentName(fragment) << " seed=" << seed
        << " query: " << ToXPathString(q);
    // Round-trip through the printer while we are here.
    Query reparsed = MustParse(ToXPathString(q));
    EXPECT_EQ(ToXPathString(reparsed), ToXPathString(q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFragments, GeneratorFragmentTest,
    ::testing::Combine(::testing::Values(Fragment::kPF, Fragment::kPositiveCore,
                                         Fragment::kCore, Fragment::kPWF,
                                         Fragment::kWF, Fragment::kPXPath,
                                         Fragment::kFullXPath),
                       ::testing::Values(7u, 99u, 1234u)));

TEST(GeneratorTest, NestedConditionQuerySizeGrowth) {
  // |Q| is Θ(2^depth) with two arms — the intro experiment's workload.
  int previous = NestedConditionQuery(1, 2).size();
  for (int depth = 2; depth <= 6; ++depth) {
    int current = NestedConditionQuery(depth, 2).size();
    EXPECT_GT(current, previous * 3 / 2);
    previous = current;
  }
  // One arm: linear growth, positive Core XPath either way.
  EXPECT_EQ(Classify(NestedConditionQuery(4, 2)).smallest,
            Fragment::kPositiveCore);
}

TEST(GeneratorTest, ChildStarChainQuery) {
  Query q = ChildStarChainQuery(5);
  EXPECT_EQ(q.root().As<PathExpr>().step_count(), 5u);
  EXPECT_EQ(Classify(q).smallest, Fragment::kPF);
}

}  // namespace
}  // namespace gkx::xpath
