// NAuxPDA evaluator tests: Table 1 row coverage (the stats counters show
// which consistency checks fire), the Definition 5.3 Singleton-Success API,
// fragment gating (Defs 5.1/6.1 restrictions rejected with pointed errors),
// and the bounded-negation extension of Theorem 5.9.

#include <gtest/gtest.h>

#include "eval/parallel_evaluator.hpp"
#include "eval/pda_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "xml/builder.hpp"
#include "xml/generator.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

using xml::Document;
using xpath::MustParse;
using xpath::Query;

Document SmallDoc() {
  // r(0) -> a(1){b(2), b(3)}, a(4){c(5)}
  xml::TreeBuilder builder("r");
  auto a1 = builder.AddChild(builder.root(), "a");
  builder.AddChild(a1, "b");
  builder.AddChild(a1, "b");
  auto a2 = builder.AddChild(builder.root(), "a");
  builder.AddChild(a2, "c");
  return std::move(builder).Build();
}

TEST(PdaTest, NodeSetEvaluationViaDomLoop) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto nodes = pda.EvaluateNodeSet(doc, MustParse("/descendant::a/child::b"));
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  EXPECT_EQ(*nodes, (NodeSet{2, 3}));
}

TEST(PdaTest, SingletonSuccessCheckCandidate) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  Query query = MustParse("/descendant::a[child::b]");
  const Context root = RootContext(doc);
  auto yes = pda.CheckCandidate(doc, query, root, 1);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = pda.CheckCandidate(doc, query, root, 4);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(PdaTest, Table1RowCountersFire) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto value = pda.EvaluateNodeSet(
      doc, MustParse("/descendant::a[child::b and position() + 1 >= last()]"
                     "/child::*"));
  ASSERT_TRUE(value.ok());
  const Table1Stats& stats = pda.last_stats();
  EXPECT_GT(stats.locstep, 0);
  EXPECT_GT(stats.step_predicate, 0);
  EXPECT_GT(stats.composition, 0);
  EXPECT_GT(stats.root_path, 0);
  EXPECT_GT(stats.and_op, 0);
  EXPECT_GT(stats.relop, 0);
  EXPECT_GT(stats.arithop, 0);
  EXPECT_GT(stats.position_fn, 0);
  EXPECT_GT(stats.last_fn, 0);
  EXPECT_GT(stats.Total(), 0);
}

TEST(PdaTest, PositionSizeComputedWithoutMaterialization) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  // child::b[2]: requires the position of the candidate in Y and |Y|.
  auto nodes = pda.EvaluateNodeSet(doc, MustParse("/descendant::a/child::b[2]"));
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, (NodeSet{3}));
  auto lasts =
      pda.EvaluateNodeSet(doc, MustParse("/child::a/child::*[last() = 2]"));
  ASSERT_TRUE(lasts.ok());
  EXPECT_EQ(*lasts, (NodeSet{2, 3}));
}

TEST(PdaTest, UnionBranches) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto nodes =
      pda.EvaluateNodeSet(doc, MustParse("/descendant::b | /descendant::c"));
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, (NodeSet{2, 3, 5}));
  EXPECT_GT(pda.last_stats().union_branch, 0);
}

TEST(PdaTest, BooleanAndScalarResults) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto boolean = pda.EvaluateAtRoot(doc, MustParse("child::a and 1 < 2"));
  ASSERT_TRUE(boolean.ok());
  EXPECT_TRUE(boolean->boolean());
  auto number = pda.EvaluateAtRoot(doc, MustParse("3 * 4 + 1"));
  ASSERT_TRUE(number.ok());
  EXPECT_DOUBLE_EQ(number->number(), 13.0);
  auto text = pda.EvaluateAtRoot(doc, MustParse("concat('x', 'y')"));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->string(), "xy");
}

TEST(PdaTest, NodeSetComparisonViaSingletonLoops) {
  xml::TreeBuilder builder("r");
  auto a = builder.AddChild(builder.root(), "a");
  builder.SetText(a, "5");
  auto b = builder.AddChild(builder.root(), "b");
  builder.SetText(b, "7");
  Document doc = std::move(builder).Build();
  PdaEvaluator pda;
  // Node-set vs number and node-set vs node-set (Theorem 6.2 extension).
  auto lt = pda.EvaluateAtRoot(doc, MustParse("child::a < 6"));
  ASSERT_TRUE(lt.ok()) << lt.status().ToString();
  EXPECT_TRUE(lt->boolean());
  auto cross = pda.EvaluateAtRoot(doc, MustParse("child::a < child::b"));
  ASSERT_TRUE(cross.ok());
  EXPECT_TRUE(cross->boolean());
  auto eq = pda.EvaluateAtRoot(doc, MustParse("child::a = child::b"));
  ASSERT_TRUE(eq.ok());
  EXPECT_FALSE(eq->boolean());
}

TEST(PdaTest, RejectsIteratedPredicates) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto value = pda.EvaluateAtRoot(doc, MustParse("child::a[child::b][child::b]"));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(value.status().message().find("Theorem 5.7"), std::string::npos);
}

TEST(PdaTest, RejectsForbiddenFunctions) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  for (const char* text :
       {"count(child::a) = 2", "sum(child::a) = 0", "string(child::a) = 'x'",
        "child::a[string-length() = 1]", "child::*[normalize-space() = '']"}) {
    auto value = pda.EvaluateAtRoot(doc, MustParse(text));
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kUnsupported) << text;
    EXPECT_NE(value.status().message().find("Def 6.1"), std::string::npos) << text;
  }
}

TEST(PdaTest, RejectsBooleanRelop) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto value = pda.EvaluateAtRoot(doc, MustParse("boolean(child::a) = true()"));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnsupported);
}

TEST(PdaTest, NegationGatedByDepth) {
  Document doc = SmallDoc();
  PdaEvaluator no_neg;
  auto rejected = no_neg.EvaluateAtRoot(doc, MustParse("child::a[not(child::b)]"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(rejected.status().message().find("Theorem 5.9"), std::string::npos);

  PdaEvaluator with_neg{PdaEvaluator::Options{.max_not_depth = 1}};
  auto nodes =
      with_neg.EvaluateNodeSet(doc, MustParse("/descendant::a[not(child::b)]"));
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, (NodeSet{4}));
  EXPECT_GT(with_neg.last_stats().not_loop, 0);

  // Depth 2 still rejected at depth budget 1.
  auto too_deep = with_neg.EvaluateAtRoot(
      doc, MustParse("child::a[not(child::b[not(child::c)])]"));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kUnsupported);
}

TEST(PdaTest, BareRootPath) {
  Document doc = SmallDoc();
  PdaEvaluator pda;
  auto nodes = pda.EvaluateNodeSet(doc, MustParse("/"));
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*nodes, (NodeSet{0}));
}

TEST(ParallelPdaTest, MatchesSequentialAndScalesThreads) {
  Rng rng(314);
  xml::RandomDocumentOptions options;
  options.node_count = 120;
  Document doc = xml::RandomDocument(&rng, options);
  Query query = MustParse("/descendant::t1[child::t2 and position() >= 1]");
  PdaEvaluator sequential;
  auto expected = sequential.EvaluateNodeSet(doc, query);
  ASSERT_TRUE(expected.ok());
  for (int threads : {1, 2, 4, 8}) {
    ParallelPdaEvaluator parallel{
        ParallelPdaEvaluator::Options{.threads = threads, .pda = {}}};
    auto actual = parallel.EvaluateNodeSet(doc, query);
    ASSERT_TRUE(actual.ok()) << threads;
    EXPECT_EQ(*actual, *expected) << threads << " threads";
  }
}

TEST(ParallelPdaTest, ScalarDelegation) {
  Document doc = SmallDoc();
  ParallelPdaEvaluator parallel;
  auto value = parallel.EvaluateAtRoot(doc, MustParse("1 + 1"));
  ASSERT_TRUE(value.ok());
  EXPECT_DOUBLE_EQ(value->number(), 2.0);
}

TEST(ParallelPdaTest, PropagatesUnsupported) {
  Document doc = SmallDoc();
  ParallelPdaEvaluator parallel;
  auto value = parallel.EvaluateAtRoot(doc, MustParse("/descendant::a[not(b)]"));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace gkx::eval
