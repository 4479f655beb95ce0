// Unit tests for the O(|D|·|Q|) Core XPath machinery: bitsets, the eleven
// O(|D|) axis-image sweeps (against brute force), inverse axes, the
// right-to-left condition sets, and fragment gating.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "base/stopwatch.hpp"
#include "eval/axes.hpp"
#include "eval/core_linear_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/recursive_base.hpp"
#include "xml/builder.hpp"
#include "xml/generator.hpp"
#include "xpath/parser.hpp"

namespace gkx::eval {
namespace {

using xml::Document;
using xml::NodeId;
using xpath::Axis;
using xpath::MustParse;

TEST(NodeBitsetTest, BasicOperations) {
  NodeBitset bits(130);
  EXPECT_TRUE(bits.Empty());
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(64));
  EXPECT_FALSE(bits.Test(63));
  EXPECT_EQ(bits.Count(), 3);
  EXPECT_EQ(bits.ToNodeSet(), (NodeSet{0, 64, 129}));

  NodeBitset other(130);
  other.Set(64);
  NodeBitset both = bits;
  both &= other;
  EXPECT_EQ(both.ToNodeSet(), (NodeSet{64}));
  both |= bits;
  EXPECT_EQ(both.Count(), 3);
  both.AndNot(other);
  EXPECT_EQ(both.ToNodeSet(), (NodeSet{0, 129}));
}

TEST(NodeBitsetTest, ComplementRespectsUniverse) {
  NodeBitset bits(70);
  bits.Set(3);
  bits.Complement();
  EXPECT_EQ(bits.Count(), 69);
  EXPECT_FALSE(bits.Test(3));
  bits.SetAll();
  EXPECT_EQ(bits.Count(), 70);
}

TEST(InverseAxisTest, Involution) {
  for (int a = 0; a < xpath::kNumAxes; ++a) {
    Axis axis = static_cast<Axis>(a);
    EXPECT_EQ(InverseAxis(InverseAxis(axis)), axis);
  }
  EXPECT_EQ(InverseAxis(Axis::kChild), Axis::kParent);
  EXPECT_EQ(InverseAxis(Axis::kDescendant), Axis::kAncestor);
  EXPECT_EQ(InverseAxis(Axis::kFollowing), Axis::kPreceding);
  EXPECT_EQ(InverseAxis(Axis::kSelf), Axis::kSelf);
}

constexpr Axis kAxes[] = {
    Axis::kSelf,           Axis::kChild,
    Axis::kParent,         Axis::kDescendant,
    Axis::kDescendantOrSelf, Axis::kAncestor,
    Axis::kAncestorOrSelf, Axis::kFollowing,
    Axis::kFollowingSibling, Axis::kPreceding,
    Axis::kPrecedingSibling,
};

/// A random document: `nodes` nodes drawn from `seed`, from bushy
/// (chain_bias 0) to a chain (1).
struct DocShape {
  uint64_t seed;
  int32_t nodes;
  double chain_bias;
};

void PrintTo(const DocShape& shape, std::ostream* os) {
  *os << shape.nodes << " nodes, chain_bias " << shape.chain_bias;
}

constexpr DocShape kShapes[] = {
    // Sizes off the 64-bit word boundaries.
    {2, 3, 0.4}, {19, 20, 0.8}, {37, 38, 0.4}, {59, 60, 0.8}, {73, 74, 0.6},
    {97, 15, 0.4},
    // One node, and the sizes around the word boundaries of a NodeBitset.
    {8, 1, 0.0}, {9, 2, 1.0}, {70, 63, 0.5}, {71, 64, 0.9}, {72, 65, 0.1},
    {136, 129, 0.95}};

// Input sets are drawn at the given density. Child and ancestor* have a
// dense column pass and a member walk, and the walk runs when
// members * 8 < |D|: density 0.3 takes the pass, 0.05 mostly the walk.
// Densities 0 and 1 are the empty and the full frontier.
class AxisImageTest
    : public ::testing::TestWithParam<std::tuple<DocShape, double>> {};

TEST_P(AxisImageTest, MatchesPerNodeEnumeration) {
  const auto [shape, density] = GetParam();
  Rng rng(shape.seed);
  xml::RandomDocumentOptions options;
  options.node_count = shape.nodes;
  options.chain_bias = shape.chain_bias;
  Document doc = xml::RandomDocument(&rng, options);
  const ResolvedTest any{xpath::NodeTest::Kind::kAny, xml::kNoName};

  int sparse_draws = 0;
  for (int trial = 0; trial < 12; ++trial) {
    NodeBitset input(doc.size());
    for (NodeId v = 0; v < doc.size(); ++v) {
      if (rng.Bernoulli(density)) input.Set(v);
    }
    if (input.Count() * 8 < doc.size()) ++sparse_draws;
    for (Axis axis : kAxes) {
      NodeBitset expected(doc.size());
      for (NodeId v = 0; v < doc.size(); ++v) {
        if (!input.Test(v)) continue;
        for (NodeId u : AxisNodes(doc, v, axis, any)) expected.Set(u);
      }
      NodeBitset actual = AxisImage(doc, axis, input);
      EXPECT_EQ(actual.ToNodeSet(), expected.ToNodeSet())
          << "axis " << xpath::AxisName(axis) << " nodes " << shape.nodes
          << " density " << density << " trial " << trial;
    }
  }
  // Both forms meet the enumeration at every size: the sparse density
  // walks at least one input, the dense density sweeps at least one.
  if (density < 0.25) {
    EXPECT_GT(sparse_draws, 0) << "nodes " << shape.nodes;
  } else {
    EXPECT_LT(sparse_draws, 12) << "nodes " << shape.nodes;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AxisImageTest,
                         ::testing::Combine(::testing::ValuesIn(kShapes),
                                            ::testing::Values(0.0, 0.05,
                                                              0.3, 1.0)));

TEST(AxisImageTest, FollowingMinimalCutoffIncludesDescendantCase) {
  // Regression: a descendant of an input node can have a smaller following
  // cutoff than the input node itself.
  xml::TreeBuilder b("r");
  auto v = b.AddChild(b.root(), "v");
  b.AddChild(v, "a");
  b.AddChild(v, "b");
  Document doc = std::move(b).Build();  // r=0, v=1, a=2, b=3
  NodeBitset input(doc.size());
  input.Set(1);  // v
  input.Set(2);  // a — following(a) = {b}
  EXPECT_EQ(AxisImage(doc, Axis::kFollowing, input).ToNodeSet(), (NodeSet{3}));
}

TEST(CoreLinearTest, RejectsNonCoreQueries) {
  Document doc = xml::ChainDocument(5);
  CoreLinearEvaluator linear;
  for (const char* text : {"child::*[position() = 2]", "count(child::*)",
                           "child::*[not(1 = 2)]", "1 + 1"}) {
    auto value = linear.EvaluateAtRoot(doc, MustParse(text));
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kUnsupported) << text;
  }
}

TEST(CoreLinearTest, AcceptsWholeCoreGrammar) {
  Document doc = xml::BalancedDocument(2, 4);
  CoreLinearEvaluator linear;
  for (const char* text :
       {"/descendant-or-self::*", "child::t1[not(child::t2)]",
        "a[b and (c or not(d))]", "a | b | c[d]",
        "descendant::*[ancestor::*[child::t1]]",
        "following::*[preceding-sibling::*]"}) {
    auto value = linear.EvaluateAtRoot(doc, MustParse(text));
    EXPECT_TRUE(value.ok()) << text << ": " << value.status().ToString();
  }
}

TEST(CoreLinearTest, AbsolutePathInsideCondition) {
  // Condition /descendant::t9 is globally false; /descendant::t1 globally
  // true — the "matches from root iff matches from anywhere" rule.
  Document doc = xml::BalancedDocument(2, 3);  // tags t0..t3 by level
  CoreLinearEvaluator linear;
  auto none = linear.EvaluateNodeSet(doc, MustParse("child::*[/descendant::t9]"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  auto all = linear.EvaluateNodeSet(doc, MustParse("child::*[/descendant::t1]"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(CoreLinearTest, ConditionCacheSharesWork) {
  // The same condition sub-expression appears twice; results must still be
  // correct (the cache is keyed by expression identity, not text).
  Document doc = xml::BalancedDocument(2, 3);
  CoreLinearEvaluator linear;
  auto value = linear.EvaluateNodeSet(
      doc, MustParse("child::*[child::t2] | descendant::*[child::t2]"));
  ASSERT_TRUE(value.ok());
  EXPECT_FALSE(value->empty());
}

// The served corpora carry no extra labels, so these two cases are where
// a name test's label pass meets the oracle outside the reduction suites.
TEST(CoreLinearTest, LabelNamesMatchTheNaiveOracle) {
  const char* const kQueries[] = {
      "descendant::l1[child::t2]",
      "descendant::*[child::l0 and not(parent::l2)]",
      "descendant-or-self::l3/ancestor::t1",
      "/descendant::t0[following-sibling::l2] | descendant::l1/parent::*",
      "descendant::l2[preceding::l0]/following::t3",
      "descendant::t1[descendant::l1 or ancestor-or-self::l3]",
      "descendant::l0/preceding-sibling::l1",
  };
  NaiveEvaluator naive;
  for (const uint64_t seed : {11, 12, 13, 14}) {
    Rng rng(seed);
    xml::RandomDocumentOptions options;
    options.node_count = 150;
    options.max_extra_labels = 2;
    const Document doc = xml::RandomDocument(&rng, options);
    ASSERT_TRUE(doc.has_labels());
    auto labelled = naive.EvaluateNodeSet(doc, MustParse("descendant::l1"));
    ASSERT_TRUE(labelled.ok());
    EXPECT_FALSE(labelled->empty()) << "seed " << seed;
    for (const char* text : kQueries) {
      const xpath::Query query = MustParse(text);
      auto expected = naive.EvaluateAtRoot(doc, query);
      ASSERT_TRUE(expected.ok()) << text;
      CoreLinearEvaluator linear;
      auto value = linear.EvaluateAtRoot(doc, query);
      ASSERT_TRUE(value.ok()) << text << ": " << value.status().ToString();
      EXPECT_TRUE(value->Equals(*expected)) << text << " seed " << seed;
      auto plan = Engine::Compile(text);
      ASSERT_TRUE(plan.ok()) << text;
      Engine engine;
      auto served = engine.RunPlan(doc, *plan);
      ASSERT_TRUE(served.ok()) << text << ": " << served.status().ToString();
      EXPECT_TRUE(served->value.Equals(*expected)) << text << " seed " << seed;
    }
  }
}

TEST(CoreLinearTest, NameTestReadsTagsAndLabelsAlike) {
  // "g" is the tag of some nodes and an extra label of others, on both
  // sides of a 64-node word boundary. Nodes are added in preorder.
  xml::TreeBuilder b("r");
  int32_t named_g = 0;
  for (int i = 0; i < 70; ++i) {
    const auto child = b.AddChild(b.root(), i % 3 == 0 ? "g" : "x");
    if (i % 3 != 0) b.AddLabel(child, i % 3 == 1 ? "g" : "h");
    named_g += i % 3 != 2;
    if (i % 5 == 0) {
      b.AddChild(child, "g");
      b.AddLabel(b.AddChild(child, "x"), "g");
      named_g += 2;
    }
  }
  const Document doc = std::move(b).Build();
  ASSERT_TRUE(doc.has_labels());
  EXPECT_FALSE(xml::BalancedDocument(2, 3).has_labels());

  CoreLinearEvaluator linear;
  auto all_g = linear.EvaluateNodeSet(doc, MustParse("descendant::g"));
  ASSERT_TRUE(all_g.ok());
  EXPECT_EQ(static_cast<int32_t>(all_g->size()), named_g);
  NaiveEvaluator naive;
  for (const char* text :
       {"descendant::g", "child::g", "descendant::g[child::g]",
        "child::x[child::g and not(self::g)]", "descendant::g/parent::g",
        "descendant::h/preceding-sibling::g", "descendant::g[following::h]",
        "descendant::x[ancestor::g]"}) {
    const xpath::Query query = MustParse(text);
    auto value = linear.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(value.ok()) << text;
    auto expected = naive.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(expected.ok()) << text;
    EXPECT_TRUE(value->Equals(*expected)) << text;
  }
}

TEST(CoreLinearTest, LinearScalingSmokeCheck) {
  // Work should scale ~linearly in |D|: evaluate the same Core query on
  // documents of ratio 8 in size and require the time ratio stays far below
  // quadratic. (Coarse smoke check; the bench measures properly.)
  CoreLinearEvaluator linear;
  xpath::Query query = MustParse(
      "descendant::t1[child::t2 and not(following-sibling::*[child::t3])]");
  Document small = xml::BalancedDocument(2, 10);  // ~2k nodes
  Document large = xml::BalancedDocument(2, 13);  // ~16k nodes
  auto warm = linear.EvaluateAtRoot(small, query);
  ASSERT_TRUE(warm.ok());
  Stopwatch sw;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(linear.EvaluateAtRoot(small, query).ok());
  const double t_small = sw.ElapsedSeconds();
  sw.Restart();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(linear.EvaluateAtRoot(large, query).ok());
  const double t_large = sw.ElapsedSeconds();
  EXPECT_LT(t_large, t_small * 40) << t_small << " vs " << t_large;
}

}  // namespace
}  // namespace gkx::eval
