// XML parser and serializer tests: happy paths, every supported construct,
// error paths with positions, the labels-attribute convention, and
// parse/serialize round-trips (including randomized documents), compared
// node for node with testkit::ExhaustiveEquals.

#include <sys/resource.h>

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "testkit/reference_edit.hpp"
#include "xml/builder.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace gkx::xml {
namespace {

Document MustParseXml(std::string_view text) {
  auto doc = ParseDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

// AddressSanitizer and ThreadSanitizer reserve terabytes of shadow memory,
// more address space than the death test below may use.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GKX_SHADOW_MEMORY_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GKX_SHADOW_MEMORY_SANITIZER 1
#endif
#endif

// The parse sizes its column reservation from a count read off the input,
// so a hostile document must not decide how much address space that takes:
// 64 MiB of "<a" counts 32M elements, about 1.8 GB of columns. Under a 1 GiB
// address-space limit the parse must fail with a typed error, not abort in
// an allocation.
void ParseHostileCountUnderOneGiB() {
  const rlimit limit{rlim_t{1} << 30, rlim_t{1} << 30};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  std::string xml;
  xml.reserve(size_t{64} << 20);
  while (xml.size() < (size_t{64} << 20)) xml += "<a";
  const auto doc = ParseDocument(xml);
  const bool typed =
      !doc.ok() && doc.status().code() == StatusCode::kInvalidArgument;
  std::_Exit(typed ? 0 : 1);
}

TEST(XmlParserDeathTest, HostileCountReservesBoundedColumns) {
#ifdef GKX_SHADOW_MEMORY_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory exceeds the address-space limit";
#else
  EXPECT_EXIT(ParseHostileCountUnderOneGiB(), ::testing::ExitedWithCode(0),
              "");
#endif
}

TEST(XmlParserTest, MinimalDocument) {
  Document doc = MustParseXml("<a/>");
  ASSERT_EQ(doc.size(), 1);
  EXPECT_EQ(doc.TagName(0), "a");
}

TEST(XmlParserTest, NestedElements) {
  Document doc = MustParseXml("<a><b><c/></b><d/></a>");
  ASSERT_EQ(doc.size(), 4);
  EXPECT_EQ(doc.TagName(1), "b");
  EXPECT_EQ(doc.parent(2), 1);
  EXPECT_EQ(doc.parent(3), 0);
}

TEST(XmlParserTest, TextContent) {
  // In whitespace-stripping mode (the default), each text chunk is trimmed.
  Document doc = MustParseXml("<a>hello <b>world</b> tail</a>");
  EXPECT_EQ(doc.text(0), "hellotail");
  EXPECT_EQ(doc.text(1), "world");
  EXPECT_EQ(doc.StringValue(0), "hellotailworld");
}

TEST(XmlParserTest, WhitespaceOnlyTextDropped) {
  Document doc = MustParseXml("<a>\n  <b/>\n</a>");
  EXPECT_TRUE(doc.text(0).empty());
}

TEST(XmlParserTest, Attributes) {
  Document doc = MustParseXml("<a x=\"1\" y='two'/>");
  EXPECT_EQ(doc.AttributeValue(0, "x"), "1");
  EXPECT_EQ(doc.AttributeValue(0, "y"), "two");
}

TEST(XmlParserTest, LabelsAttributeBecomesLabels) {
  Document doc = MustParseXml("<a labels=\"G R I1\"/>");
  EXPECT_TRUE(doc.NodeHasName(0, "G"));
  EXPECT_TRUE(doc.NodeHasName(0, "R"));
  EXPECT_TRUE(doc.NodeHasName(0, "I1"));
  EXPECT_EQ(doc.attribute_count(0), 0);
}

TEST(XmlParserTest, EntitiesDecoded) {
  Document doc = MustParseXml("<a>&lt;&gt;&amp;&quot;&apos;</a>");
  EXPECT_EQ(doc.text(0), "<>&\"'");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  Document doc = MustParseXml("<a>&#65;&#x42;&#xe9;</a>");
  EXPECT_EQ(doc.text(0), "AB\xC3\xA9");  // é in UTF-8
  // At the bounds of XML's Char: a tab, the last code point before the
  // surrogates, and the last code point of all (four UTF-8 bytes).
  Document bounds =
      MustParseXml("<a k='&#x10FFFF;'>x&#x9;&#xD7FF;&#x10FFFF;</a>");
  EXPECT_EQ(bounds.text(0), "x\t\xED\x9F\xBF\xF4\x8F\xBF\xBF");
  EXPECT_EQ(bounds.AttributeValue(0, "k"), "\xF4\x8F\xBF\xBF");
}

TEST(XmlParserTest, CommentsIgnored) {
  Document doc = MustParseXml("<!-- head --><a><!-- inner --><b/></a><!-- tail -->");
  EXPECT_EQ(doc.size(), 2);
}

TEST(XmlParserTest, CdataBecomesText) {
  Document doc = MustParseXml("<a><![CDATA[<raw>&stuff;]]></a>");
  EXPECT_EQ(doc.text(0), "<raw>&stuff;");
}

TEST(XmlParserTest, PrologAndDoctypeSkipped) {
  Document doc = MustParseXml(
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a/>");
  EXPECT_EQ(doc.size(), 1);
}

TEST(XmlParserTest, ProcessingInstructionsIgnored) {
  Document doc = MustParseXml("<a><?target data?><b/></a>");
  EXPECT_EQ(doc.size(), 2);
}

// --- error paths ---

void ExpectParseError(std::string_view text, std::string_view fragment) {
  auto doc = ParseDocument(text);
  ASSERT_FALSE(doc.ok()) << "expected failure for: " << text;
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(doc.status().message().find(fragment), std::string::npos)
      << doc.status().message();
}

TEST(XmlParserErrorTest, Empty) { ExpectParseError("", "no root element"); }

TEST(XmlParserErrorTest, MismatchedTags) {
  ExpectParseError("<a><b></a></b>", "mismatched closing tag");
}

TEST(XmlParserErrorTest, UnterminatedElement) {
  ExpectParseError("<a><b>", "unterminated element");
}

TEST(XmlParserErrorTest, MultipleRoots) {
  ExpectParseError("<a/><b/>", "after root element");
}

TEST(XmlParserErrorTest, TextOutsideRoot) {
  ExpectParseError("hello<a/>", "expected root element");
}

TEST(XmlParserErrorTest, UnknownEntity) {
  ExpectParseError("<a>&bogus;</a>", "unknown entity");
}

// A reference past U+10FFFF is rejected at the digit that passes it, so a
// value that wraps 32 bits (2^32 + 65) cannot come back as 'A'.
TEST(XmlParserErrorTest, WrappedDecimalCharacterReference) {
  ExpectParseError("<a>&#4294967361;</a>", "bad character reference");
  ExpectParseError("<a k='&#4294967361;'/>", "bad character reference");
}

TEST(XmlParserErrorTest, WrappedHexCharacterReference) {
  ExpectParseError("<a>&#x100000041;</a>", "bad character reference");
  ExpectParseError("<a k='&#x100000041;'/>", "bad character reference");
}

// XML 1.0's Char production excludes NUL and the surrogates.
TEST(XmlParserErrorTest, NulCharacterReference) {
  ExpectParseError("<a>x&#0;y</a>", "bad character reference");
}

TEST(XmlParserErrorTest, SurrogateCharacterReference) {
  ExpectParseError("<a>&#xD800;</a>", "bad character reference");
}

TEST(XmlParserErrorTest, BadAttribute) {
  ExpectParseError("<a x=1/>", "quoted attribute value");
}

TEST(XmlParserErrorTest, UnterminatedComment) {
  ExpectParseError("<a><!-- forever</a>", "unterminated comment");
}

TEST(XmlParserErrorTest, ErrorPositionIsReported) {
  auto doc = ParseDocument("<a>\n<b x=bad/></a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 2"), std::string::npos)
      << doc.status().message();
}

// --- serializer and round-trips ---

TEST(XmlSerializerTest, BasicShape) {
  Document doc = MustParseXml("<a><b>text</b><c/></a>");
  std::string xml = SerializeDocument(doc);
  EXPECT_NE(xml.find("<a>"), std::string::npos);
  EXPECT_NE(xml.find("<b>text</b>"), std::string::npos);
  EXPECT_NE(xml.find("<c/>"), std::string::npos);
}

TEST(XmlSerializerTest, EscapesSpecials) {
  TreeBuilder builder("a");
  builder.SetText(builder.root(), "x<y>&");
  builder.AddAttribute(builder.root(), "k", "\"v\"");
  Document doc = std::move(builder).Build();
  std::string xml = SerializeDocument(doc);
  EXPECT_NE(xml.find("x&lt;y&gt;&amp;"), std::string::npos);
  EXPECT_NE(xml.find("&quot;v&quot;"), std::string::npos);
}

TEST(XmlSerializerTest, LabelsEmitted) {
  TreeBuilder builder("a");
  builder.AddLabel(builder.root(), "G");
  builder.AddLabel(builder.root(), "R");
  Document doc = std::move(builder).Build();
  std::string xml = SerializeDocument(doc);
  EXPECT_NE(xml.find("labels=\""), std::string::npos);
}

TEST(XmlSerializerTest, SubtreeSerialization) {
  Document doc = MustParseXml("<a><b><c/></b></a>");
  std::string xml = SerializeSubtree(doc, 1);
  EXPECT_EQ(xml.find("<a"), std::string::npos);
  EXPECT_NE(xml.find("<b"), std::string::npos);
}

TEST(XmlRoundTripTest, HandWrittenDocument) {
  Document original = MustParseXml(
      "<a x=\"1\"><b labels=\"G I1\">text</b><c><d y='2'>deep</d></c></a>");
  Document reparsed = MustParseXml(SerializeDocument(original));
  std::string why;
  EXPECT_TRUE(testkit::ExhaustiveEquals(original, reparsed, &why)) << why;
}

class XmlRoundTripRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlRoundTripRandomTest, SerializeParseIsIdentity) {
  Rng rng(GetParam());
  RandomDocumentOptions options;
  options.node_count = 60;
  options.max_extra_labels = 2;
  options.text_probability = 0.5;
  Document original = RandomDocument(&rng, options);
  for (int indent : {0, 2}) {
    SerializeOptions ser;
    ser.indent = indent;
    auto reparsed = ParseDocument(SerializeDocument(original, ser));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    std::string why;
    EXPECT_TRUE(testkit::ExhaustiveEquals(original, *reparsed, &why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripRandomTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace gkx::xml
