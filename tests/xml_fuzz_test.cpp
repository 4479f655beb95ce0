// Robustness tests for the XML and XPath parsers: random byte soup, mutated
// well-formed inputs, and truncations must never crash or hang — they must
// return clean Status errors (or succeed). The XPath printer round-trip is
// additionally applied whenever a mutated query still parses.
//
// Every document ParseDocument accepts is checked against the snapshot
// decoder's invariant, which owes nothing to the arena writer
// (PreorderBuilder) that the parser and TreeBuilder share: the parent,
// child, sibling and last-child links, depths and subtree sizes must
// describe one tree in preorder, labels must be sorted apart from the tag,
// and every span must lie in its pool. A round trip through two parses, or
// through a parse and a TreeBuilder replay, cannot see a writer bug, since
// the same writer built both sides.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xml/snapshot.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx {
namespace {

// An accepted input must decode from its own snapshot bytes (the decoder
// checks the arena invariant) into an ExhaustiveEquals-identical document;
// a rejected one gets InvalidArgument.
void ExpectParsedArenaValid(std::string_view input) {
  auto doc = xml::ParseDocument(input);
  if (!doc.ok()) {
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  std::string bytes;
  xml::SaveSnapshotBytes(*doc, &bytes);
  auto loaded = xml::LoadSnapshotBytes(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString() << " on: " << input;
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(*doc, *loaded, &why)) << why;
}

std::string RandomBytes(Rng* rng, size_t length, bool xmlish) {
  static constexpr char kXmlish[] = "<>/=\"' abcdefgh&;![]-?";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (xmlish) {
      out += kXmlish[rng->UniformInt(0, sizeof(kXmlish) - 2)];
    } else {
      out += static_cast<char>(rng->UniformInt(1, 255));
    }
  }
  return out;
}

TEST(XmlFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(13131);
  for (int i = 0; i < 500; ++i) {
    std::string input = RandomBytes(&rng, 1 + i % 120, i % 2 == 0);
    auto doc = xml::ParseDocument(input);
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(doc.status().message().empty());
    }
  }
}

TEST(XmlFuzzTest, MutatedDocumentsNeverCrash) {
  Rng rng(4242);
  xml::RandomDocumentOptions options;
  options.node_count = 25;
  options.max_extra_labels = 1;
  options.text_probability = 0.4;
  for (int i = 0; i < 200; ++i) {
    xml::Document doc = xml::RandomDocument(&rng, options);
    std::string xml = xml::SerializeDocument(doc);
    // Flip/delete/insert a few bytes.
    for (int m = 0; m < 3; ++m) {
      if (xml.empty()) break;
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(xml.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          xml[at] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          xml.erase(at, 1);
          break;
        default:
          xml.insert(at, 1, '<');
      }
    }
    auto mutated = xml::ParseDocument(xml);
    if (!mutated.ok()) {
      EXPECT_EQ(mutated.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(XmlFuzzTest, TruncationsNeverCrash) {
  std::string xml =
      "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>"
      "<r a=\"v\"><x labels=\"G R\">t&amp;x<![CDATA[raw]]></x><!--c--></r>";
  for (size_t length = 0; length <= xml.size(); ++length) {
    auto doc = xml::ParseDocument(xml.substr(0, length));
    if (!doc.ok()) {
      EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(XmlFuzzTest, ParsedByteSoupPassesSnapshotCheck) {
  Rng rng(90210);
  for (int i = 0; i < 400; ++i) {
    ExpectParsedArenaValid(RandomBytes(&rng, 1 + i % 120, i % 2 == 0));
  }
}

TEST(XmlFuzzTest, ParsedMutatedDocumentsPassSnapshotCheck) {
  Rng rng(2468);
  xml::RandomDocumentOptions options;
  options.node_count = 30;
  options.max_extra_labels = 2;
  options.text_probability = 0.5;
  for (int i = 0; i < 150; ++i) {
    xml::Document doc = xml::RandomDocument(&rng, options);
    std::string xml = xml::SerializeDocument(doc);
    // Unmutated first, so the accept path is covered, not just rejections.
    ExpectParsedArenaValid(xml);
    for (int m = 0; m < 2; ++m) {
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(xml.size()) - 1));
      xml[at] = static_cast<char>(rng.UniformInt(32, 126));
    }
    ExpectParsedArenaValid(xml);
  }
}

TEST(XmlFuzzTest, ParsedTruncationsPassSnapshotCheck) {
  std::string xml =
      "<?xml version=\"1.0\"?><!DOCTYPE r [<!ELEMENT r ANY>]>"
      "<r a=\"v\"><x labels=\"G R\">t&amp;x<![CDATA[raw]]></x><!--c--></r>";
  for (size_t length = 0; length <= xml.size(); ++length) {
    ExpectParsedArenaValid(std::string_view(xml).substr(0, length));
  }
}

TEST(XmlFuzzTest, SnapshotRoundTripOnRandomDocuments) {
  const std::string path = ::testing::TempDir() + "/fuzz_snapshot.gkx";
  Rng rng(31337);
  xml::RandomDocumentOptions options;
  options.max_extra_labels = 2;
  options.text_probability = 0.5;
  for (int i = 0; i < 40; ++i) {
    options.node_count = 1 + static_cast<int32_t>(rng.UniformInt(0, 300));
    xml::Document doc = xml::RandomDocument(&rng, options);
    ASSERT_TRUE(xml::SaveSnapshot(doc, path).ok());
    auto mapped = xml::MapSnapshot(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->mapped());
    std::string why;
    EXPECT_TRUE(testkit::ExhaustiveEquals(doc, *mapped, &why)) << why;
    // A copy of a mapped document materializes and still compares equal.
    xml::Document copy = *mapped;
    EXPECT_FALSE(copy.mapped());
    EXPECT_TRUE(testkit::ExhaustiveEquals(doc, copy, &why)) << why;
  }
  std::remove(path.c_str());
}

TEST(XPathFuzzTest, RandomQueriesNeverCrash) {
  Rng rng(777);
  static constexpr char kQueryish[] =
      "abct0:/[]()@$*|=!<>+-.,'\" anddivmodorpositionlastnot";
  for (int i = 0; i < 800; ++i) {
    std::string input;
    size_t length = 1 + static_cast<size_t>(i % 60);
    for (size_t c = 0; c < length; ++c) {
      input += kQueryish[rng.UniformInt(0, sizeof(kQueryish) - 2)];
    }
    auto query = xpath::ParseQuery(input);
    if (query.ok()) {
      // Whatever parsed must round-trip through the printer.
      std::string printed = xpath::ToXPathString(*query);
      auto reparsed = xpath::ParseQuery(printed);
      ASSERT_TRUE(reparsed.ok()) << input << " -> " << printed;
      EXPECT_EQ(xpath::ToXPathString(*reparsed), printed);
    } else {
      EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(query.status().message().empty());
    }
  }
}

TEST(XPathFuzzTest, TruncatedRealQueriesNeverCrash) {
  constexpr std::string_view kQuery =
      "/descendant-or-self::*[self::R and descendant-or-self::*[self::O2 and "
      "parent::*[not(child::*[self::I2 and not(ancestor-or-self::*)])]] and "
      "position() + 1 = last()] | //a[substring('xy', 1, 2) = 'xy']";
  for (size_t length = 0; length <= kQuery.size(); ++length) {
    auto query = xpath::ParseQuery(kQuery.substr(0, length));
    if (!query.ok()) {
      EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace gkx
