// Context-value-table internals: table shapes by dependence class, entry
// accounting, eager-vs-lazy behavior, evaluator reuse across documents and
// queries, and the deep-document robustness of the whole xml+eval stack
// (iterative builder/serializer, chain documents thousands of nodes deep).

#include <gtest/gtest.h>

#include "eval/cvt_evaluator.hpp"
#include "eval/pf_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/generator.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

using xpath::MustParse;

TEST(CvtTablesTest, ConstantQueryUsesOneCell) {
  xml::Document doc = xml::BalancedDocument(2, 6);
  CvtEvaluator cvt;
  ASSERT_TRUE(cvt.EvaluateAtRoot(doc, MustParse("1 + 2 * 3")).ok());
  // Three literals + two operators — but all are context-free; each expr
  // stores exactly one cell.
  EXPECT_EQ(cvt.last_table_entries(), 5);
}

TEST(CvtTablesTest, AbsolutePathIsContextFree) {
  xml::Document doc = xml::BalancedDocument(2, 8);
  CvtEvaluator lazy;
  ASSERT_TRUE(lazy.EvaluateAtRoot(doc, MustParse("/child::t1/child::t2")).ok());
  // One cell for the whole path: it is evaluated once, from the root.
  EXPECT_EQ(lazy.last_table_entries(), 1);
}

TEST(CvtTablesTest, LazyTouchesOnlyReachableContexts) {
  xml::Document doc = xml::BalancedDocument(2, 8);  // 511 nodes
  CvtEvaluator lazy;
  CvtEvaluator eager{CvtEvaluator::Options{.eager = true}};
  xpath::Query query = MustParse("/child::*[child::t2]");
  auto lazy_value = lazy.EvaluateAtRoot(doc, query);
  auto eager_value = eager.EvaluateAtRoot(doc, query);
  ASSERT_TRUE(lazy_value.ok());
  ASSERT_TRUE(eager_value.ok());
  EXPECT_TRUE(lazy_value->Equals(*eager_value));
  // Lazy evaluates the predicate at the root's 2 children only; eager fills
  // the condition's table for all |D| nodes (the paper-faithful bottom-up
  // pass).
  EXPECT_LT(lazy.last_table_entries(), 10);
  EXPECT_GT(eager.last_table_entries(), doc.size());
}

TEST(CvtTablesTest, PositionalPredicateUsesFullContextTable) {
  xml::Document doc = xml::BalancedDocument(3, 3);
  CvtEvaluator cvt;
  xpath::Query query = MustParse("descendant::*[position() = last()]");
  auto value = cvt.EvaluateAtRoot(doc, query);
  ASSERT_TRUE(value.ok());
  // The predicate context includes position/size; entries exceed |D| since
  // the same node occurs at different (pos, size) pairs.
  EXPECT_GT(cvt.last_table_entries(), 0);
  NaiveEvaluator naive;
  auto expected = naive.EvaluateAtRoot(doc, query);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(value->Equals(*expected));
}

TEST(CvtTablesTest, FullContextKeyHoldsPositionsPastTwoToTheTwenty) {
  // A node-set of 2^20 + 1 nodes puts its last node at the second context,
  // past the 20-bit fields of a packed 64-bit key: the cell must be keyed
  // by the whole ⟨node, position, size⟩.
  auto doc = xml::ParseDocument("<r><a/><b/></r>");
  ASSERT_TRUE(doc.ok());
  CvtEvaluator cvt;
  xpath::Query query = MustParse("position() + 1 = last()");
  for (const int64_t size : {(int64_t{1} << 20) - 1, (int64_t{1} << 20) + 1}) {
    auto last = cvt.Evaluate(*doc, query, Context{0, size - 1, size});
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_TRUE(last->boolean()) << size;
    auto earlier = cvt.Evaluate(*doc, query, Context{0, size - 2, size});
    ASSERT_TRUE(earlier.ok()) << earlier.status().ToString();
    EXPECT_FALSE(earlier->boolean()) << size;
  }
}

TEST(CvtTablesTest, EvaluatorReuseAcrossQueriesAndDocuments) {
  CvtEvaluator cvt;
  xml::Document doc1 = xml::BalancedDocument(2, 4);
  xml::Document doc2 = xml::ChainDocument(30);
  xpath::Query q1 = MustParse("descendant::t1");
  xpath::Query q2 = MustParse("descendant::t1[child::t2]");
  auto a = cvt.EvaluateAtRoot(doc1, q1);
  auto b = cvt.EvaluateAtRoot(doc2, q1);   // same query, new document
  auto c = cvt.EvaluateAtRoot(doc1, q2);   // new query, old document
  auto a2 = cvt.EvaluateAtRoot(doc1, q1);  // back to the first pair
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && a2.ok());
  EXPECT_TRUE(a->Equals(*a2));
  NaiveEvaluator naive;
  EXPECT_TRUE(b->Equals(*naive.EvaluateAtRoot(doc2, q1)));
  EXPECT_TRUE(c->Equals(*naive.EvaluateAtRoot(doc1, q2)));
}

TEST(CvtTablesTest, ErrorsInsidePredicatesPropagate) {
  xml::Document doc = xml::BalancedDocument(2, 3);
  CvtEvaluator cvt;
  // count() requires a node-set; (1+1) is a number — kInvalidArgument.
  auto value = cvt.EvaluateAtRoot(doc, MustParse("child::*[count(1 + 1) = 0]"));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeepDocumentTest, ChainOfThousandsEndToEnd) {
  // 20k-deep chain: builder, serializer, parser, and evaluators must all be
  // recursion-free along the document depth.
  constexpr int32_t kDepth = 20000;
  xml::Document doc = xml::ChainDocument(kDepth, /*tag_alphabet=*/3);
  ASSERT_EQ(doc.size(), kDepth);
  ASSERT_EQ(doc.Stats().max_depth, kDepth - 1);

  std::string xml_text = xml::SerializeDocument(doc, {.indent = 0});
  auto reparsed = xml::ParseDocument(xml_text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(doc.StructurallyEquals(*reparsed));

  CvtEvaluator cvt;
  auto count = cvt.EvaluateAtRoot(doc, MustParse("count(/descendant::t1)"));
  ASSERT_TRUE(count.ok());
  int expected_t1 = 0;
  for (int32_t i = 1; i < kDepth; ++i) {
    if (i % 3 == 1) ++expected_t1;
  }
  EXPECT_DOUBLE_EQ(count->number(), expected_t1);

  PfEvaluator pf;
  auto tips = pf.EvaluateAtRoot(doc, MustParse("/descendant::*/child::t1"));
  ASSERT_TRUE(tips.ok());
}

TEST(PfEvaluatorTest, MatchesOtherEnginesOnPf) {
  Rng rng(66);
  xml::RandomDocumentOptions options;
  options.node_count = 70;
  xpath::RandomQueryOptions query_options;
  query_options.fragment = xpath::Fragment::kPF;
  PfEvaluator pf;
  NaiveEvaluator naive;
  for (int i = 0; i < 40; ++i) {
    xml::Document doc = xml::RandomDocument(&rng, options);
    xpath::Query query = xpath::RandomQuery(&rng, query_options);
    auto expected = naive.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(expected.ok());
    auto actual = pf.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_TRUE(expected->Equals(*actual));
  }
}

TEST(PfEvaluatorTest, RejectsPredicates) {
  xml::Document doc = xml::BalancedDocument(2, 3);
  PfEvaluator pf;
  auto value = pf.EvaluateAtRoot(doc, MustParse("child::*[child::t1]"));
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kUnsupported);
  auto scalar = pf.EvaluateAtRoot(doc, MustParse("1 + 1"));
  ASSERT_FALSE(scalar.ok());
  EXPECT_EQ(scalar.status().code(), StatusCode::kUnsupported);
}

TEST(PfEvaluatorTest, NonRootContext) {
  xml::Document doc = xml::BalancedDocument(2, 3);
  PfEvaluator pf;
  NaiveEvaluator naive;
  xpath::Query query = MustParse("following-sibling::*/child::t2");
  for (xml::NodeId v = 0; v < doc.size(); v += 2) {
    auto expected = naive.Evaluate(doc, query, Context{v, 1, 1});
    auto actual = pf.Evaluate(doc, query, Context{v, 1, 1});
    ASSERT_TRUE(expected.ok() && actual.ok());
    EXPECT_TRUE(expected->Equals(*actual)) << v;
  }
}

}  // namespace
}  // namespace gkx::eval
