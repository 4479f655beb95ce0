// Conformance mini-suite: (document, query, expected) triples transcribed
// from the XPath 1.0 recommendation's prose and examples, adapted to this
// data model (element-only dom, root = document element). Each case runs
// through the Engine facade (per-step classifier + plan executor) and
// through the naive spec kernel.

#include <gtest/gtest.h>

#include "eval/engine.hpp"
#include "eval/recursive_base.hpp"
#include "xml/parser.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

// <doc>              0
//   <chapter>        1   (title "Introduction")
//     <title>        2
//     <section>      3   (title "A")
//       <title>      4
//     </section>
//     <section>      5   (title "B")
//       <title>      6
//     </section>
//   </chapter>
//   <chapter>        7   (title "Results")
//     <title>        8
//     <appendix/>    9
//   </chapter>
// </doc>
xml::Document Doc() {
  auto doc = xml::ParseDocument(
      "<doc>"
      "<chapter><title>Introduction</title>"
      "<section><title>A</title></section>"
      "<section><title>B</title></section></chapter>"
      "<chapter><title>Results</title><appendix/></chapter>"
      "</doc>");
  GKX_CHECK(doc.ok());
  return std::move(doc).value();
}

struct Case {
  const char* query;
  NodeSet expected;
};

class ConformanceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ConformanceTest, NodeSetCases) {
  xml::Document doc = Doc();
  const Case& c = GetParam();
  Engine engine;
  auto answer = engine.Run(doc, c.query);
  ASSERT_TRUE(answer.ok()) << c.query << ": " << answer.status().ToString();
  EXPECT_EQ(answer->value.nodes(), c.expected) << c.query;
  NaiveEvaluator naive;
  auto reference = naive.EvaluateAtRoot(doc, xpath::MustParse(c.query));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->nodes(), c.expected) << c.query << " (naive)";
}

INSTANTIATE_TEST_SUITE_P(
    Rec, ConformanceTest,
    ::testing::Values(
        // "child::para selects the para element children" — adapted tags.
        Case{"child::chapter", {1, 7}},
        // "child::* selects all element children".
        Case{"child::*", {1, 7}},
        // "child::*/child::title".
        Case{"child::*/child::title", {2, 8}},
        // "descendant::para selects the para descendants".
        Case{"descendant::title", {2, 4, 6, 8}},
        // "ancestor::div selects all div ancestors" (from a title).
        Case{"descendant::section/ancestor::chapter", {1}},
        // "descendant-or-self::para".
        Case{"descendant-or-self::doc", {0}},
        // "self::para selects the context node iff it is a para".
        Case{"self::doc", {0}},
        Case{"self::chapter", {}},
        // "child::chapter/descendant::para" composition.
        Case{"child::chapter/descendant::title", {2, 4, 6, 8}},
        // "child::para[position()=1]".
        Case{"child::chapter[position() = 1]", {1}},
        // "child::para[position()=last()]".
        Case{"child::chapter[position() = last()]", {7}},
        // "child::para[position()=last()-1]".
        Case{"child::chapter[position() = last() - 1]", {1}},
        // "child::para[position()>1]".
        Case{"child::chapter[position() > 1]", {7}},
        // "/descendant::figure[position()=42]" shape.
        Case{"/descendant::title[position() = 3]", {6}},
        // "following-sibling::chapter[position()=1]".
        Case{"child::chapter[1]/following-sibling::chapter[position() = 1]", {7}},
        // "preceding-sibling::chapter[position()=1]".
        Case{"child::chapter[2]/preceding-sibling::chapter[position() = 1]", {1}},
        // "child::chapter[child::title='Introduction']".
        Case{"child::chapter[child::title = 'Introduction']", {1}},
        // "child::chapter[child::title]".
        Case{"child::chapter[child::title]", {1, 7}},
        // "child::*[self::chapter or self::appendix]".
        Case{"descendant::*[self::section or self::appendix]", {3, 5, 9}},
        // "child::*[self::chapter or self::appendix][position()=last()]".
        Case{"descendant::*[self::section or self::appendix]"
             "[position() = last()]",
             {9}},
        // '//' abbreviation.
        Case{"//section", {3, 5}},
        Case{"//section/title", {4, 6}},
        // '.' and '..'.
        Case{".", {0}},
        Case{"descendant::appendix/..", {7}},
        Case{"descendant::appendix/../title", {8}},
        // "para[last()]" sugar.
        Case{"child::chapter[last()]", {7}},
        // union of chapters and sections.
        Case{"//chapter | //section", {1, 3, 5, 7}},
        // not() + exists.
        Case{"child::chapter[not(descendant::section)]", {7}},
        // node() test.
        Case{"child::chapter/child::node()", {2, 3, 5, 8, 9}}));

TEST(ConformanceScalarTest, FunctionExamples) {
  xml::Document doc = Doc();
  Engine engine;

  struct ScalarCase {
    const char* query;
    double expected;
  };
  const ScalarCase numbers[] = {
      {"count(//title)", 4},
      {"count(//chapter)", 2},
      {"string-length(string(/descendant::title[1]))", 12},  // "Introduction"
      {"floor(3.7)", 3},
      {"ceiling(3.2)", 4},
      {"round(2.5)", 3},
      {"round(-2.5)", -2},
      {"7 mod 3", 1},
      {"8 div 2", 4},
  };
  for (const ScalarCase& c : numbers) {
    auto answer = engine.Run(doc, c.query);
    ASSERT_TRUE(answer.ok()) << c.query;
    EXPECT_DOUBLE_EQ(answer->value.ToNumber(doc), c.expected) << c.query;
  }

  struct StringCase {
    const char* query;
    const char* expected;
  };
  const StringCase strings[] = {
      {"string(child::chapter[2]/child::title)", "Results"},
      {"concat('a', 'b', 'c')", "abc"},
      {"substring-before('1999/04/01', '/')", "1999"},
      {"substring-after('1999/04/01', '/')", "04/01"},
      {"substring('12345', 1.5, 2.6)", "234"},
      {"normalize-space('  a  b  ')", "a b"},
      {"translate('bar', 'abc', 'ABC')", "BAr"},
      {"local-name(//appendix)", "appendix"},
  };
  for (const StringCase& c : strings) {
    auto answer = engine.Run(doc, c.query);
    ASSERT_TRUE(answer.ok()) << c.query;
    EXPECT_EQ(answer->value.ToString(doc), c.expected) << c.query;
  }

  struct BoolCase {
    const char* query;
    bool expected;
  };
  const BoolCase booleans[] = {
      {"boolean(//section)", true},
      {"boolean(//missing)", false},
      {"contains('hello', 'ell')", true},
      {"starts-with('hello', 'he')", true},
      {"not(true())", false},
      {"1 < 2 and 2 < 3", true},
      {"'7' = 7", true},          // string/number comparison via numbers
      {"//section = //title", true},  // shared string-value "A" exists
      {"//appendix = //title", false},  // "" matches no title text
  };
  for (const BoolCase& c : booleans) {
    auto answer = engine.Run(doc, c.query);
    ASSERT_TRUE(answer.ok()) << c.query;
    EXPECT_EQ(answer->value.ToBoolean(), c.expected) << c.query;
  }
}

}  // namespace
}  // namespace gkx::eval
