// xml::ApplyEdit — subtree patches over the preorder tree.
//   * Goldens: each edit kind on a small fixed document, checking the
//     spliced links, subtree sizes, depths, serialization, and the
//     reported DocumentDelta (interval, local name sets, flags).
//   * Metamorphic (the patch/rebuild equivalence): over randomized edits
//     on generated corpora, ApplyEdit(doc, e) is node-for-node identical —
//     links, labels, attributes, text, subtree sizes, depths, and the
//     serialized bytes — to building the edited document from scratch
//     (testkit::NaiveApplyEdit), including under chains of edits.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace gkx::xml {
namespace {

using testkit::ExhaustiveEquals;
using testkit::NaiveApplyEdit;

Document Parse(std::string_view xml) {
  auto doc = ParseDocument(xml);
  GKX_CHECK(doc.ok());
  return std::move(doc).value();
}

std::string OneLine(const Document& doc) {
  SerializeOptions options;
  options.indent = 0;
  return SerializeDocument(doc, options);
}

/// Every structural invariant the evaluators rely on, checked directly
/// (sizes, depths, link symmetry, preorder layout).
void ExpectWellFormed(const Document& doc) {
  for (NodeId v = 0; v < doc.size(); ++v) {
    ASSERT_GE(doc.subtree_size(v), 1);
    ASSERT_LE(v + doc.subtree_size(v), doc.size());
    if (v == 0) {
      ASSERT_EQ(doc.parent(v), kNullNode);
      ASSERT_EQ(doc.depth(v), 0);
      ASSERT_EQ(doc.subtree_size(v), doc.size());
    } else {
      ASSERT_GE(doc.parent(v), 0);
      ASSERT_LT(doc.parent(v), v);
      ASSERT_EQ(doc.depth(v), doc.depth(doc.parent(v)) + 1);
      ASSERT_TRUE(doc.IsAncestorOrSelf(doc.parent(v), v));
    }
    // Children partition (v, v + subtree_size) and link both ways.
    int64_t child_total = 0;
    NodeId expected_child = v + 1;
    NodeId previous = kNullNode;
    for (NodeId c = doc.first_child(v); c != kNullNode;
         c = doc.next_sibling(c)) {
      ASSERT_EQ(c, expected_child);
      ASSERT_EQ(doc.parent(c), v);
      ASSERT_EQ(doc.prev_sibling(c), previous);
      previous = c;
      child_total += doc.subtree_size(c);
      expected_child = c + doc.subtree_size(c);
    }
    ASSERT_EQ(doc.last_child(v), previous);
    ASSERT_EQ(child_total, doc.subtree_size(v) - 1);
  }
}

// ------------------------------------------------------------- goldens

const char kBase[] =
    "<catalog>"
    "<item><sku>a1</sku><price>10</price></item>"
    "<item><sku>b2</sku><price>20</price></item>"
    "<summary><total>30</total></summary>"
    "</catalog>";

TEST(ApplyEditTest, ReplaceSubtreeSplicesIntervalAndReportsDelta) {
  Document doc = Parse(kBase);
  // Second <item> subtree: nodes [4, 7) (catalog=0, item=1, sku=2, price=3).
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kReplaceSubtree;
  edit.target = 4;
  edit.subtree = Parse("<item><sku>c3</sku><qty>5</qty><note/></item>");

  DocumentDelta delta;
  auto edited = ApplyEdit(doc, edit, &delta);
  ASSERT_TRUE(edited.ok());
  ExpectWellFormed(*edited);
  EXPECT_EQ(OneLine(*edited),
            OneLine(Parse("<catalog>"
                          "<item><sku>a1</sku><price>10</price></item>"
                          "<item><sku>c3</sku><qty>5</qty><note/></item>"
                          "<summary><total>30</total></summary>"
                          "</catalog>")));

  EXPECT_EQ(delta.begin, 4);
  EXPECT_EQ(delta.old_count, 3);
  EXPECT_EQ(delta.new_count, 4);
  EXPECT_EQ(delta.shift(), 1);
  EXPECT_FALSE(delta.ids_stable);
  EXPECT_TRUE(delta.content_changed);  // "b2"+"20" -> "c3"+"5"
  EXPECT_EQ(delta.old_names,
            (std::vector<std::string>{"item", "price", "sku"}));
  EXPECT_EQ(delta.new_names,
            (std::vector<std::string>{"item", "note", "qty", "sku"}));
  EXPECT_EQ(delta.ChangedNames(),
            (std::vector<std::string>{"item", "note", "price", "qty", "sku"}));

  // The summary section kept its structure, one preorder slot later.
  EXPECT_EQ(edited->TagName(7 + delta.shift()), "summary");
  EXPECT_EQ(edited->StringValue(7 + delta.shift()), "30");
}

TEST(ApplyEditTest, RemoveSubtreeBypassesSiblingsAndShrinksAncestors) {
  Document doc = Parse(kBase);
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kRemoveSubtree;
  edit.target = 4;  // second <item>

  DocumentDelta delta;
  auto edited = ApplyEdit(doc, edit, &delta);
  ASSERT_TRUE(edited.ok());
  ExpectWellFormed(*edited);
  EXPECT_EQ(OneLine(*edited),
            OneLine(Parse("<catalog>"
                          "<item><sku>a1</sku><price>10</price></item>"
                          "<summary><total>30</total></summary>"
                          "</catalog>")));
  EXPECT_EQ(delta.old_count, 3);
  EXPECT_EQ(delta.new_count, 0);
  EXPECT_FALSE(delta.ids_stable);
  EXPECT_TRUE(delta.content_changed);
  EXPECT_TRUE(delta.new_names.empty());
  // first <item> and <summary> are now adjacent siblings.
  EXPECT_EQ(edited->next_sibling(1), 4);
  EXPECT_EQ(edited->prev_sibling(4), 1);
}

TEST(ApplyEditTest, InsertSubtreeAtEveryPosition) {
  for (int32_t position : {0, 1, 2, 3}) {
    Document doc = Parse(kBase);
    SubtreeEdit edit;
    edit.kind = SubtreeEdit::Kind::kInsertSubtree;
    edit.target = 0;  // under <catalog>
    edit.position = position;
    edit.subtree = Parse("<banner><text>hi</text></banner>");

    DocumentDelta delta;
    auto edited = ApplyEdit(doc, edit, &delta);
    ASSERT_TRUE(edited.ok()) << "position=" << position;
    ExpectWellFormed(*edited);
    EXPECT_TRUE(
        ExhaustiveEquals(*edited, NaiveApplyEdit(doc, edit)))
        << "position=" << position;
    EXPECT_EQ(delta.old_count, 0);
    EXPECT_EQ(delta.new_count, 2);
    EXPECT_FALSE(delta.ids_stable);
    EXPECT_TRUE(delta.content_changed);
    EXPECT_EQ(delta.new_names, (std::vector<std::string>{"banner", "text"}));
    EXPECT_EQ(edited->ChildCount(0), 4);
  }
}

TEST(ApplyEditTest, SetTextKeepsIdsAndNamesStable) {
  Document doc = Parse(kBase);
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kSetText;
  edit.target = 6;  // <price>20</price>
  edit.text = "25";

  DocumentDelta delta;
  auto edited = ApplyEdit(doc, edit, &delta);
  ASSERT_TRUE(edited.ok());
  ExpectWellFormed(*edited);
  EXPECT_EQ(edited->size(), doc.size());
  EXPECT_EQ(edited->StringValue(6), "25");
  EXPECT_TRUE(delta.ids_stable);
  EXPECT_TRUE(delta.content_changed);
  EXPECT_TRUE(delta.old_names.empty());  // a text edit changes no name
  EXPECT_TRUE(delta.new_names.empty());
  EXPECT_EQ(delta.begin, 6);
  EXPECT_EQ(delta.shift(), 0);

  // Same text => no content change reported.
  edit.text = "20";
  ASSERT_TRUE(ApplyEdit(doc, edit, &delta).ok());
  EXPECT_FALSE(delta.content_changed);
}

TEST(ApplyEditTest, RelabelReportsBothTagsAndKeepsStructure) {
  Document doc = Parse(kBase);
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kRelabel;
  edit.target = 7;  // <summary>
  edit.label = "digest";

  DocumentDelta delta;
  auto edited = ApplyEdit(doc, edit, &delta);
  ASSERT_TRUE(edited.ok());
  ExpectWellFormed(*edited);
  EXPECT_EQ(edited->TagName(7), "digest");
  EXPECT_TRUE(delta.ids_stable);
  EXPECT_FALSE(delta.content_changed);
  EXPECT_EQ(delta.old_names, (std::vector<std::string>{"summary"}));
  EXPECT_EQ(delta.new_names, (std::vector<std::string>{"digest"}));
  EXPECT_TRUE(ExhaustiveEquals(*edited, NaiveApplyEdit(doc, edit)));
}

TEST(ApplyEditTest, RejectsInvalidEdits) {
  Document doc = Parse(kBase);
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kRemoveSubtree;
  edit.target = 0;  // the root cannot be removed
  EXPECT_FALSE(ApplyEdit(doc, edit).ok());

  edit.target = doc.size();  // out of range
  EXPECT_FALSE(ApplyEdit(doc, edit).ok());

  edit.kind = SubtreeEdit::Kind::kReplaceSubtree;
  edit.target = 1;  // empty replacement subtree
  EXPECT_FALSE(ApplyEdit(doc, edit).ok());

  edit.kind = SubtreeEdit::Kind::kInsertSubtree;
  edit.target = 0;
  edit.position = 4;  // only 3 children
  edit.subtree = Parse("<x/>");
  EXPECT_FALSE(ApplyEdit(doc, edit).ok());
}

TEST(ApplyEditTest, NameIdsOfSurvivingNodesAreStable) {
  Document doc = Parse(kBase);
  const NameId summary = doc.FindName("summary");
  SubtreeEdit edit;
  edit.kind = SubtreeEdit::Kind::kReplaceSubtree;
  edit.target = 1;
  edit.subtree = Parse("<widget><gear/></widget>");
  auto edited = ApplyEdit(doc, edit);
  ASSERT_TRUE(edited.ok());
  // Old pool prefix intact, new names appended after it.
  EXPECT_EQ(edited->FindName("summary"), summary);
  EXPECT_GE(edited->FindName("widget"),
            static_cast<NameId>(doc.InternedNames().size()));
}

// ----------------------------------------------------------- metamorphic

TEST(ApplyEditMetamorphicTest, PatchEqualsRebuildOverRandomizedEditChains) {
  RandomDocumentOptions doc_options;
  doc_options.tag_alphabet = 5;
  doc_options.tag_zipf_s = 0.6;
  doc_options.max_extra_labels = 2;
  doc_options.text_probability = 0.35;

  RandomEditOptions edit_options;
  edit_options.subtree_options = doc_options;

  for (uint64_t seed : {3u, 17u, 91u, 203u}) {
    Rng rng(seed);
    doc_options.node_count = static_cast<int32_t>(rng.UniformInt(2, 80));
    Document current = RandomDocument(&rng, doc_options);
    // Chains of edits: each round patches the previous round's output, so
    // the splicer must keep every invariant the next splice relies on
    // (including pool-superset interning).
    for (int round = 0; round < 60; ++round) {
      const SubtreeEdit edit = RandomSubtreeEdit(&rng, current, edit_options);
      DocumentDelta delta;
      auto patched = ApplyEdit(current, edit, &delta);
      ASSERT_TRUE(patched.ok())
          << "seed=" << seed << " round=" << round;
      ExpectWellFormed(*patched);

      const Document rebuilt = NaiveApplyEdit(current, edit);
      std::string why;
      ASSERT_TRUE(ExhaustiveEquals(*patched, rebuilt, &why))
          << "seed=" << seed << " round=" << round << " kind="
          << static_cast<int>(edit.kind) << " target=" << edit.target
          << ": " << why;
      // Serialized bytes agree too — modulo the labels attribute, whose
      // emission order follows per-document NameIds and therefore the
      // interning history (ExhaustiveEquals already compared labels as the
      // sets they are, Remark 3.1).
      SerializeOptions no_labels;
      no_labels.labels_attribute.clear();
      ASSERT_EQ(SerializeDocument(*patched, no_labels),
                SerializeDocument(rebuilt, no_labels))
          << "seed=" << seed << " round=" << round;

      // Delta sanity against the two documents it connects.
      ASSERT_EQ(patched->size(),
                current.size() + delta.shift())
          << "seed=" << seed << " round=" << round;
      if (delta.ids_stable) {
        ASSERT_EQ(delta.old_count, delta.new_count);
      }

      current = std::move(patched).value();
    }
  }
}

}  // namespace
}  // namespace gkx::xml
