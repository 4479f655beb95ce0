// XPath 1.0 value semantics: coercions, the §3.4 comparison rules (including
// existential node-set comparisons), arithmetic, and round().

#include <cmath>

#include <gtest/gtest.h>

#include "eval/value.hpp"
#include "xml/builder.hpp"

namespace gkx::eval {
namespace {

using xpath::ArithmeticOp;
using xpath::BinaryOp;

xml::Document TextDoc() {
  // root with three children carrying texts "1", "2", "x".
  xml::TreeBuilder builder("root");
  xml::BuildNodeId a = builder.AddChild(builder.root(), "a");
  builder.SetText(a, "1");
  xml::BuildNodeId b = builder.AddChild(builder.root(), "b");
  builder.SetText(b, "2");
  xml::BuildNodeId c = builder.AddChild(builder.root(), "c");
  builder.SetText(c, "x");
  return std::move(builder).Build();
}

TEST(ValueTest, BooleanCoercion) {
  EXPECT_TRUE(Value::Boolean(true).ToBoolean());
  EXPECT_FALSE(Value::Boolean(false).ToBoolean());
  EXPECT_TRUE(Value::Number(1.5).ToBoolean());
  EXPECT_FALSE(Value::Number(0.0).ToBoolean());
  EXPECT_FALSE(Value::Number(std::nan("")).ToBoolean());
  EXPECT_TRUE(Value::Number(INFINITY).ToBoolean());
  EXPECT_TRUE(Value::String("x").ToBoolean());
  EXPECT_FALSE(Value::String("").ToBoolean());
  EXPECT_TRUE(Value::String("false").ToBoolean());  // non-empty string!
  EXPECT_TRUE(Value::Nodes({1}).ToBoolean());
  EXPECT_FALSE(Value::Nodes({}).ToBoolean());
}

TEST(ValueTest, NumberCoercion) {
  xml::Document doc = TextDoc();
  EXPECT_DOUBLE_EQ(Value::Boolean(true).ToNumber(doc), 1.0);
  EXPECT_DOUBLE_EQ(Value::Boolean(false).ToNumber(doc), 0.0);
  EXPECT_DOUBLE_EQ(Value::String(" 42 ").ToNumber(doc), 42.0);
  EXPECT_TRUE(std::isnan(Value::String("nope").ToNumber(doc)));
  // Node-set: number(string-value of first node).
  EXPECT_DOUBLE_EQ(Value::Nodes({1}).ToNumber(doc), 1.0);
  EXPECT_DOUBLE_EQ(Value::Nodes({2}).ToNumber(doc), 2.0);
  EXPECT_TRUE(std::isnan(Value::Nodes({3}).ToNumber(doc)));
  EXPECT_TRUE(std::isnan(Value::Nodes({}).ToNumber(doc)));
}

TEST(ValueTest, StringCoercion) {
  xml::Document doc = TextDoc();
  EXPECT_EQ(Value::Boolean(true).ToString(doc), "true");
  EXPECT_EQ(Value::Boolean(false).ToString(doc), "false");
  EXPECT_EQ(Value::Number(3.0).ToString(doc), "3");
  EXPECT_EQ(Value::Number(-0.5).ToString(doc), "-0.5");
  EXPECT_EQ(Value::Nodes({}).ToString(doc), "");
  EXPECT_EQ(Value::Nodes({1, 2}).ToString(doc), "1");  // first node only
  EXPECT_EQ(Value::Nodes({0}).ToString(doc), "12x");   // subtree string-value
}

TEST(ValueTest, EqualsIsExact) {
  EXPECT_TRUE(Value::Number(2.0).Equals(Value::Number(2.0)));
  EXPECT_FALSE(Value::Number(2.0).Equals(Value::Boolean(true)));
  EXPECT_FALSE(Value::Number(std::nan("")).Equals(Value::Number(std::nan(""))));
  EXPECT_TRUE(Value::Nodes({1, 2}).Equals(Value::Nodes({1, 2})));
  EXPECT_FALSE(Value::Nodes({1}).Equals(Value::Nodes({2})));
}

TEST(CompareTest, ScalarEquality) {
  xml::Document doc = TextDoc();
  // boolean beats number beats string.
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, Value::Boolean(true),
                            Value::Number(7.0)));  // both -> boolean
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, Value::Number(2.0),
                            Value::String("2")));  // both -> number
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, Value::String("ab"),
                            Value::String("ab")));
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kNe, Value::String("a"),
                            Value::String("b")));
}

TEST(CompareTest, OrderComparisonsGoThroughNumbers) {
  xml::Document doc = TextDoc();
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kLt, Value::String("2"),
                            Value::String("10")));  // 2 < 10 numerically
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kLt, Value::String("x"),
                             Value::String("10")));  // NaN comparisons false
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kGe, Value::Boolean(true),
                            Value::Number(1.0)));
}

TEST(CompareTest, NodeSetVsNumberIsExistential) {
  xml::Document doc = TextDoc();
  Value nodes = Value::Nodes({1, 2});  // string-values "1", "2"
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, nodes, Value::Number(2.0)));
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kEq, nodes, Value::Number(3.0)));
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kLt, nodes, Value::Number(2.0)));
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kGt, nodes, Value::Number(2.0)));
  // Mirrored operand order.
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kLt, Value::Number(1.0), nodes));
}

TEST(CompareTest, NodeSetVsString) {
  xml::Document doc = TextDoc();
  Value nodes = Value::Nodes({1, 3});  // "1", "x"
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, nodes, Value::String("x")));
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kEq, nodes, Value::String("y")));
  // != is existential too: some node differs from "x".
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kNe, nodes, Value::String("x")));
}

TEST(CompareTest, NodeSetVsBooleanUsesSetEmptiness) {
  xml::Document doc = TextDoc();
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, Value::Nodes({1}),
                            Value::Boolean(true)));
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, Value::Nodes({}),
                            Value::Boolean(false)));
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kEq, Value::Nodes({}),
                             Value::Boolean(true)));
}

TEST(CompareTest, NodeSetVsNodeSet) {
  xml::Document doc = TextDoc();
  Value left = Value::Nodes({1});      // "1"
  Value right = Value::Nodes({2, 3});  // "2", "x"
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kEq, left, right));
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kNe, left, right));
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kLt, left, right));  // 1 < 2
  Value both = Value::Nodes({1, 2});
  EXPECT_TRUE(CompareValues(doc, BinaryOp::kEq, both, right));  // "2" matches
  // Empty node-set compares false against everything.
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kEq, Value::Nodes({}), right));
  EXPECT_FALSE(CompareValues(doc, BinaryOp::kNe, Value::Nodes({}), right));
}

TEST(ArithmeticTest, Operators) {
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kAdd, 2, 3), 5);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kSub, 2, 3), -1);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kMul, 2, 3), 6);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kDiv, 3, 2), 1.5);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kMod, 5, 2), 1);
  // XPath mod keeps the dividend's sign (unlike IEEE remainder).
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kMod, -5, 2), -1);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kMod, 5, -2), 1);
  EXPECT_DOUBLE_EQ(ArithmeticOp(BinaryOp::kMod, 1.5, 1.0), 0.5);
}

TEST(ArithmeticTest, DivisionByZero) {
  EXPECT_TRUE(std::isinf(ArithmeticOp(BinaryOp::kDiv, 1, 0)));
  EXPECT_LT(ArithmeticOp(BinaryOp::kDiv, -1, 0), 0);
  EXPECT_TRUE(std::isnan(ArithmeticOp(BinaryOp::kDiv, 0, 0)));
  EXPECT_TRUE(std::isnan(ArithmeticOp(BinaryOp::kMod, 1, 0)));
}

TEST(RoundTest, XPathRounding) {
  EXPECT_DOUBLE_EQ(XPathRound(2.5), 3.0);   // round-half-up, not banker's
  EXPECT_DOUBLE_EQ(XPathRound(-2.5), -2.0); // floor(x + 0.5)
  EXPECT_DOUBLE_EQ(XPathRound(2.4), 2.0);
  EXPECT_TRUE(std::isnan(XPathRound(std::nan(""))));
  EXPECT_TRUE(std::isinf(XPathRound(INFINITY)));
}

TEST(ValueTest, DebugStrings) {
  EXPECT_EQ(Value::Boolean(true).DebugString(), "boolean(true)");
  EXPECT_EQ(Value::Number(4).DebugString(), "number(4)");
  EXPECT_EQ(Value::String("s").DebugString(), "string('s')");
  EXPECT_EQ(Value::Nodes({1, 4}).DebugString(), "node-set{1,4}");
}

}  // namespace
}  // namespace gkx::eval
