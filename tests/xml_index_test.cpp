// DocumentIndex: posting lists agree with brute-force scans over tags and
// extra labels (Remark 3.1), on handcrafted and random documents and on
// the revisions that chains of subtree edits make of them.

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xml/index.hpp"
#include "xml/parser.hpp"

namespace gkx::xml {
namespace {

Document Doc(std::string_view text) {
  auto doc = ParseDocument(text);
  GKX_CHECK(doc.ok());
  return std::move(doc).value();
}

TEST(DocumentIndexTest, PostingListsAreSortedAndComplete) {
  Document doc = Doc("<r><a x='1'><b/><b/></a><a/><c x='2' y='3'/></r>");
  DocumentIndex index(doc);

  EXPECT_EQ(index.NodesWithName("a"), (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(index.NodesWithName("b"), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(index.NodesWithName("r"), (std::vector<NodeId>{0}));
  EXPECT_TRUE(index.NodesWithName("zzz").empty());
}

TEST(DocumentIndexTest, ExtraLabelsAreIndexed) {
  // The parser's labels-attribute convention (Remark 3.1 multi-labels).
  Document doc = Doc("<r><a labels='l0 l1'/><b labels='l1'/></r>");
  DocumentIndex index(doc);
  EXPECT_EQ(index.NodesWithName("l0"), (std::vector<NodeId>{1}));
  EXPECT_EQ(index.NodesWithName("l1"), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(index.NodesWithName("a"), (std::vector<NodeId>{1}));
}

TEST(DocumentIndexTest, AppendNamedInRange) {
  Document doc = Doc("<r><a><b/><b/></a><a><b/></a></r>");
  DocumentIndex index(doc);
  NameId b = doc.FindName("b");
  std::vector<NodeId> out;
  index.AppendNamedInRange(b, 2, 5, &out);  // [2, 5): both b's of first a
  EXPECT_EQ(out, (std::vector<NodeId>{2, 3}));
  index.AppendNamedInRange(b, 0, doc.size(), &out);  // appends, keeps prior
  EXPECT_EQ(out, (std::vector<NodeId>{2, 3, 2, 3, 5}));
}

TEST(DocumentIndexTest, AgreesWithBruteForceOnRandomDocuments) {
  // Each document runs a chain of random subtree edits, and every revision
  // gets a fresh index. ApplyEdit keeps the old intern pool, so an edited
  // pool can hold names no node carries any more: their posting lists must
  // be empty, and so must the list of the first id past the pool.
  Rng rng(7);
  int64_t dead_names = 0;
  for (int trial = 0; trial < 10; ++trial) {
    RandomDocumentOptions options;
    options.node_count = 200;
    options.tag_alphabet = 3;
    options.max_extra_labels = 2;
    options.label_alphabet = 2;
    RandomEditOptions edit_options;
    edit_options.subtree_options = options;
    edit_options.subtree_options.tag_alphabet = 5;
    edit_options.subtree_options.label_alphabet = 3;
    Document doc = RandomDocument(&rng, options);
    for (int round = 0; round <= 12; ++round) {
      if (round > 0) {
        auto edited = ApplyEdit(doc, RandomSubtreeEdit(&rng, doc, edit_options));
        ASSERT_TRUE(edited.ok());
        doc = std::move(edited).value();
      }
      DocumentIndex index(doc);
      const auto pool = static_cast<NameId>(doc.InternedNames().size());
      for (NameId name = 0; name <= pool; ++name) {
        std::vector<NodeId> expected;
        for (NodeId v = 0; v < doc.size(); ++v) {
          if (doc.NodeHasName(v, name)) expected.push_back(v);
        }
        EXPECT_EQ(index.NodesWithName(name), expected)
            << "trial " << trial << " round " << round << " name " << name;
        if (name < pool && expected.empty()) ++dead_names;
      }
    }
  }
  EXPECT_GT(dead_names, 0);  // the chains did leave names behind
}

}  // namespace
}  // namespace gkx::xml
