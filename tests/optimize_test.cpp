// Optimizer tests: structural expectations for each rewrite, the famous
// //para[1] ≠ /descendant::para[1] suppression, and differential
// equivalence of optimized vs original queries on random documents across
// all contexts.

#include <gtest/gtest.h>

#include "eval/cvt_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "xml/generator.hpp"
#include "xpath/optimize.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx::xpath {
namespace {

std::string Optimized(std::string_view text, OptimizeStats* stats = nullptr) {
  Query query = MustParse(text);
  return ToXPathString(Optimize(query, stats));
}

TEST(OptimizeTest, FusesDoubleSlashIdiom) {
  OptimizeStats stats;
  EXPECT_EQ(Optimized("//a", &stats), "/descendant::a");
  EXPECT_EQ(stats.fused_steps, 1);
  EXPECT_EQ(Optimized("a//b"), "child::a/descendant::b");
  EXPECT_EQ(Optimized("//a//b"), "/descendant::a/descendant::b");
  EXPECT_EQ(Optimized("//a[child::b]"), "/descendant::a[child::b]");
}

TEST(OptimizeTest, FusesDescendantAfterDos) {
  EXPECT_EQ(Optimized("descendant-or-self::node()/descendant::a"),
            "descendant::a");
}

TEST(OptimizeTest, SuppressesFusionForPositionalPredicates) {
  // //para[1] selects the first para child of each ancestor — NOT the first
  // descendant. The optimizer must leave it alone.
  EXPECT_EQ(Optimized("//a[1]"),
            "/descendant-or-self::node()/child::a[1]");
  EXPECT_EQ(Optimized("//a[position() = 2]"),
            "/descendant-or-self::node()/child::a[position() = 2]");
  EXPECT_EQ(Optimized("//a[last()]"),
            "/descendant-or-self::node()/child::a[last()]");
  // Non-positional predicates fuse fine.
  EXPECT_EQ(Optimized("//a[child::b and not(child::c)]"),
            "/descendant::a[child::b and not(child::c)]");
}

TEST(OptimizeTest, DropsIdentitySelfSteps) {
  EXPECT_EQ(Optimized("./child::a"), "child::a");
  EXPECT_EQ(Optimized("child::a/."), "child::a");
  EXPECT_EQ(Optimized("."), "self::node()");     // sole step must stay
  EXPECT_EQ(Optimized("/."), "/");
  // self with a test or predicate is not an identity.
  EXPECT_EQ(Optimized("self::a/child::b"), "self::a/child::b");
  EXPECT_EQ(Optimized("self::node()[child::a]/child::b"),
            "self::node()[child::a]/child::b");
}

TEST(OptimizeTest, DropsTrivialPredicates) {
  OptimizeStats stats;
  EXPECT_EQ(Optimized("child::a[true()]", &stats), "child::a");
  EXPECT_EQ(stats.dropped_predicates, 1);
  EXPECT_EQ(Optimized("child::a[position() >= 1]"), "child::a");
  EXPECT_EQ(Optimized("child::a[position() <= last()]"), "child::a");
  // Near-misses stay.
  EXPECT_EQ(Optimized("child::a[position() >= 2]"),
            "child::a[position() >= 2]");
  EXPECT_EQ(Optimized("child::a[false()]"), "child::a[false()]");
}

TEST(OptimizeTest, FoldsConstantBooleanPredicates) {
  OptimizeStats stats;
  EXPECT_EQ(Optimized("child::t2[2 <= 4]", &stats), "child::t2");
  EXPECT_EQ(stats.dropped_predicates, 1);
  EXPECT_EQ(Optimized("child::a[1 > 2]", &stats), "child::a[false()]");
  EXPECT_EQ(stats.folded_predicates, 1);
  // NaN equals nothing, itself included.
  EXPECT_EQ(Optimized("child::a[0 div 0 = 0 div 0]"), "child::a[false()]");
  // mod keeps the dividend's sign: 5 mod -3 is 2.
  EXPECT_EQ(Optimized("child::a[5 mod -3 = 2]"), "child::a");
  EXPECT_EQ(Optimized("child::a[not(1 = 1) or -(2 * 3) < -5]"), "child::a");
  EXPECT_EQ(Optimized("child::a[true() and false()]"), "child::a[false()]");
  // Inside a nested path's step too.
  EXPECT_EQ(Optimized("child::a[child::b[3 > 2]]"), "child::a[child::b]");
  // A constant number is a position test; a constant inside a larger
  // predicate is left alone.
  EXPECT_EQ(Optimized("child::a[2 + 1]"), "child::a[2 + 1]");
  EXPECT_EQ(Optimized("child::a[2 <= 4 and child::b]"),
            "child::a[2 <= 4 and child::b]");
  EXPECT_EQ(Optimized("child::a[position() = 1 + 1]"),
            "child::a[position() = 1 + 1]");
}

TEST(OptimizeTest, FlattensNestedUnions) {
  OptimizeStats stats;
  EXPECT_EQ(Optimized("a | (b | c)", &stats), "child::a | child::b | child::c");
  EXPECT_EQ(stats.unwrapped_unions, 1);
}

TEST(OptimizeTest, RewritesInsidePredicates) {
  EXPECT_EQ(Optimized("child::a[.//b]"),
            "child::a[descendant::b]");
}

TEST(OptimizeTest, StatsTotals) {
  OptimizeStats stats;
  Optimized("//a[true()]/./b", &stats);
  EXPECT_GE(stats.Total(), 3);  // fusion + trivial predicate + self drop
}

// Differential: optimization must preserve semantics everywhere. The
// optimized query runs on cvt; the referee is the naive evaluator on the
// query as written.
class OptimizeEquivalenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizeEquivalenceTest, OptimizedQueryIsEquivalent) {
  Query original = MustParse(GetParam());
  Query optimized = Optimize(original);
  Rng rng(2718);
  xml::RandomDocumentOptions options;
  options.node_count = 50;
  eval::NaiveEvaluator oracle;
  eval::CvtEvaluator engine;
  for (int trial = 0; trial < 5; ++trial) {
    xml::Document doc = xml::RandomDocument(&rng, options);
    for (xml::NodeId v = 0; v < doc.size(); v += 4) {
      eval::Context ctx{v, 1, 1};
      auto a = oracle.Evaluate(doc, original, ctx);
      auto b = engine.Evaluate(doc, optimized, ctx);
      ASSERT_TRUE(a.ok() && b.ok()) << GetParam();
      EXPECT_TRUE(a->Equals(*b))
          << GetParam() << "  =>  " << ToXPathString(optimized) << " at node "
          << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, OptimizeEquivalenceTest,
    ::testing::Values("//t1", "t0//t1", "//t0//t1[child::t2]", "//t1[1]",
                      ".//t2[position() = last()]", "./t0/./t1/.",
                      "//t0[true()][child::t1]",
                      "t0[position() >= 1][position() <= last()]",
                      "descendant-or-self::node()/descendant::t3",
                      "t0 | (t1 | t2)",
                      "//t0[.//t1 or not(.//t2)]",
                      "self::node()/self::node()/t1",
                      // Literal predicates: folded, kept as positions, or
                      // left inside a larger predicate.
                      "//t0/t1[2 <= 4]", "//t1[1 > 2]",
                      "//t0[0 div 0 = 0 div 0]", "t0[5 mod -3 = 2]//t1",
                      "//t1[2 + 1]", "//t0[not(1 = 2)][1]",
                      "//t0[-1 < 0 and child::t1]",
                      "//t0[t1[2 <= 4]][position() = 2]"));

}  // namespace
}  // namespace gkx::xpath
