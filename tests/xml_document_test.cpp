// Tests for the document model and builder: preorder invariants, tree links,
// subtree sizes, depths, labels, string values, and structural equality.

#include <gtest/gtest.h>

#include "testkit/reference_edit.hpp"
#include "xml/builder.hpp"
#include "xml/document.hpp"
#include "xml/generator.hpp"

namespace gkx::xml {
namespace {

// <a><b><d/><e/></b><c/></a>
Document SampleDoc() {
  TreeBuilder builder("a");
  BuildNodeId b = builder.AddChild(builder.root(), "b");
  builder.AddChild(b, "d");
  builder.AddChild(b, "e");
  builder.AddChild(builder.root(), "c");
  return std::move(builder).Build();
}

TEST(DocumentTest, PreorderNumbering) {
  Document doc = SampleDoc();
  ASSERT_EQ(doc.size(), 5);
  EXPECT_EQ(doc.TagName(0), "a");
  EXPECT_EQ(doc.TagName(1), "b");
  EXPECT_EQ(doc.TagName(2), "d");
  EXPECT_EQ(doc.TagName(3), "e");
  EXPECT_EQ(doc.TagName(4), "c");
}

TEST(DocumentTest, TreeLinks) {
  Document doc = SampleDoc();
  EXPECT_EQ(doc.parent(0), kNullNode);
  EXPECT_EQ(doc.parent(1), 0);
  EXPECT_EQ(doc.parent(2), 1);
  EXPECT_EQ(doc.parent(4), 0);
  EXPECT_EQ(doc.first_child(0), 1);
  EXPECT_EQ(doc.last_child(0), 4);
  EXPECT_EQ(doc.next_sibling(1), 4);
  EXPECT_EQ(doc.prev_sibling(4), 1);
  EXPECT_EQ(doc.next_sibling(2), 3);
  EXPECT_EQ(doc.prev_sibling(3), 2);
}

TEST(DocumentTest, SubtreeSizes) {
  Document doc = SampleDoc();
  EXPECT_EQ(doc.subtree_size(0), 5);
  EXPECT_EQ(doc.subtree_size(1), 3);
  EXPECT_EQ(doc.subtree_size(2), 1);
  EXPECT_EQ(doc.subtree_size(4), 1);
}

TEST(DocumentTest, Depths) {
  Document doc = SampleDoc();
  EXPECT_EQ(doc.depth(0), 0);
  EXPECT_EQ(doc.depth(1), 1);
  EXPECT_EQ(doc.depth(2), 2);
  EXPECT_EQ(doc.depth(4), 1);
}

TEST(DocumentTest, ChildrenHelper) {
  Document doc = SampleDoc();
  EXPECT_EQ(doc.Children(0), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(doc.Children(1), (std::vector<NodeId>{2, 3}));
  EXPECT_TRUE(doc.Children(2).empty());
  EXPECT_EQ(doc.ChildCount(0), 2);
}

TEST(DocumentTest, IsAncestorOrSelf) {
  Document doc = SampleDoc();
  EXPECT_TRUE(doc.IsAncestorOrSelf(0, 3));
  EXPECT_TRUE(doc.IsAncestorOrSelf(1, 1));
  EXPECT_TRUE(doc.IsAncestorOrSelf(1, 3));
  EXPECT_FALSE(doc.IsAncestorOrSelf(1, 4));
  EXPECT_FALSE(doc.IsAncestorOrSelf(3, 1));
}

TEST(DocumentTest, MultiLabels) {
  TreeBuilder builder("root");
  BuildNodeId v = builder.AddChild(builder.root(), "n");
  builder.AddLabel(v, "G");
  builder.AddLabel(v, "I3");
  builder.AddLabel(v, "G");  // duplicate ignored
  Document doc = std::move(builder).Build();
  EXPECT_TRUE(doc.NodeHasName(1, "n"));   // primary tag
  EXPECT_TRUE(doc.NodeHasName(1, "G"));   // label
  EXPECT_TRUE(doc.NodeHasName(1, "I3"));
  EXPECT_FALSE(doc.NodeHasName(1, "R"));
  EXPECT_FALSE(doc.NodeHasName(0, "G"));
  EXPECT_EQ(doc.labels(1).size(), 2u);
}

TEST(DocumentTest, LabelEqualToTagIsNotDuplicated) {
  TreeBuilder builder("root");
  BuildNodeId v = builder.AddChild(builder.root(), "G");
  builder.AddLabel(v, "G");
  Document doc = std::move(builder).Build();
  EXPECT_TRUE(doc.labels(1).empty());
  EXPECT_TRUE(doc.NodeHasName(1, "G"));
}

TEST(DocumentTest, FindNameMissing) {
  Document doc = SampleDoc();
  EXPECT_EQ(doc.FindName("zebra"), kNoName);
  EXPECT_NE(doc.FindName("a"), kNoName);
}

TEST(DocumentTest, StringValueConcatenatesSubtreeText) {
  TreeBuilder builder("a");
  builder.SetText(builder.root(), "x");
  BuildNodeId b = builder.AddChild(builder.root(), "b");
  builder.SetText(b, "y");
  BuildNodeId c = builder.AddChild(builder.root(), "c");
  builder.SetText(c, "z");
  Document doc = std::move(builder).Build();
  EXPECT_EQ(doc.StringValue(0), "xyz");
  EXPECT_EQ(doc.StringValue(1), "y");
}

TEST(DocumentTest, Attributes) {
  TreeBuilder builder("a");
  builder.AddAttribute(builder.root(), "id", "r1");
  Document doc = std::move(builder).Build();
  EXPECT_EQ(doc.AttributeValue(0, "id"), "r1");
  EXPECT_EQ(doc.AttributeValue(0, "missing"), "");
}

TEST(DocumentTest, Stats) {
  Document doc = SampleDoc();
  DocumentStats stats = doc.Stats();
  EXPECT_EQ(stats.node_count, 5);
  EXPECT_EQ(stats.max_depth, 2);
  EXPECT_EQ(stats.max_fanout, 2);
}

TEST(DocumentTest, StructuralEquality) {
  Document a = SampleDoc();
  Document b = SampleDoc();
  EXPECT_TRUE(testkit::ExhaustiveEquals(a, b));
  TreeBuilder builder("a");
  builder.AddChild(builder.root(), "b");
  Document c = std::move(builder).Build();
  EXPECT_FALSE(testkit::ExhaustiveEquals(a, c));
}

TEST(BuilderTest, AddChain) {
  TreeBuilder builder("root");
  BuildNodeId tip = builder.AddChain(builder.root(), "x", 4);
  Document doc = std::move(builder).Build();
  (void)tip;
  ASSERT_EQ(doc.size(), 5);
  EXPECT_EQ(doc.depth(4), 4);
  EXPECT_EQ(doc.Stats().max_depth, 4);
}

TEST(GeneratorTest, RandomDocumentSizeAndDeterminism) {
  RandomDocumentOptions options;
  options.node_count = 200;
  options.max_extra_labels = 2;
  Rng rng1(42);
  Rng rng2(42);
  Document a = RandomDocument(&rng1, options);
  Document b = RandomDocument(&rng2, options);
  EXPECT_EQ(a.size(), 200);
  EXPECT_TRUE(testkit::ExhaustiveEquals(a, b));
}

TEST(GeneratorTest, ChainBiasProducesDeepTrees) {
  RandomDocumentOptions options;
  options.node_count = 100;
  options.chain_bias = 1.0;
  Rng rng(1);
  Document doc = RandomDocument(&rng, options);
  EXPECT_EQ(doc.Stats().max_depth, 99);
}

TEST(GeneratorTest, BalancedDocument) {
  Document doc = BalancedDocument(3, 3);
  EXPECT_EQ(doc.size(), 1 + 3 + 9 + 27);
  EXPECT_EQ(doc.Stats().max_depth, 3);
  EXPECT_EQ(doc.Stats().max_fanout, 3);
}

TEST(GeneratorTest, ChainDocument) {
  Document doc = ChainDocument(10);
  EXPECT_EQ(doc.size(), 10);
  EXPECT_EQ(doc.Stats().max_depth, 9);
  EXPECT_EQ(doc.Stats().max_fanout, 1);
}

TEST(GeneratorTest, WideShallowDocument) {
  Document doc = WideShallowDocument(7);
  EXPECT_EQ(doc.size(), 1 + 2 * 7);
  EXPECT_EQ(doc.Stats().max_depth, 2);
  EXPECT_EQ(doc.Stats().max_fanout, 7);
}

// Preorder/structure invariants on random documents (property sweep).
class RandomDocInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDocInvariantTest, Invariants) {
  Rng rng(GetParam());
  RandomDocumentOptions options;
  options.node_count = 1 + static_cast<int32_t>(GetParam() % 257);
  options.chain_bias = (GetParam() % 10) / 10.0;
  Document doc = RandomDocument(&rng, options);
  ASSERT_EQ(doc.size(), options.node_count);
  int64_t subtree_sum = 0;
  for (NodeId v = 0; v < doc.size(); ++v) {
    subtree_sum += doc.subtree_size(v);
    if (v == 0) {
      EXPECT_EQ(doc.parent(v), kNullNode);
      EXPECT_EQ(doc.depth(v), 0);
    } else {
      ASSERT_GE(doc.parent(v), 0);
      ASSERT_LT(doc.parent(v), v);  // parents precede children in preorder
      EXPECT_EQ(doc.depth(v), doc.depth(doc.parent(v)) + 1);
      EXPECT_TRUE(doc.IsAncestorOrSelf(doc.parent(v), v));
    }
    // Children enumeration matches parent pointers.
    for (NodeId c : doc.Children(v)) EXPECT_EQ(doc.parent(c), v);
    // Subtree range property: nodes in (v, v+size) have v as an ancestor.
    for (NodeId u = v + 1; u < v + doc.subtree_size(v); ++u) {
      EXPECT_TRUE(doc.IsAncestorOrSelf(v, u));
    }
  }
  // Sum of subtree sizes = sum over nodes of (depth+1).
  int64_t depth_sum = 0;
  for (NodeId v = 0; v < doc.size(); ++v) depth_sum += doc.depth(v) + 1;
  EXPECT_EQ(subtree_sum, depth_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDocInvariantTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace gkx::xml
