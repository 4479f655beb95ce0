// Lexer, parser, and printer tests: grammar coverage, operator precedence and
// the §3.7 lexical disambiguation, abbreviation expansion, targeted error
// messages, and print/parse round-trip stability.

#include <gtest/gtest.h>

#include "xpath/lexer.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx::xpath {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("/child::a[position() = 2]");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kSlash, TokenKind::kName, TokenKind::kDoubleColon,
                TokenKind::kName, TokenKind::kLBracket, TokenKind::kName,
                TokenKind::kLParen, TokenKind::kRParen, TokenKind::kEq,
                TokenKind::kNumber, TokenKind::kRBracket, TokenKind::kEof}));
}

TEST(LexerTest, StarDisambiguation) {
  // '*' after '::' is a wildcard; after an operand it is multiplication.
  auto wildcard = Tokenize("child::*");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ((*wildcard)[2].kind, TokenKind::kStar);

  auto multiply = Tokenize("2 * 3");
  ASSERT_TRUE(multiply.ok());
  EXPECT_EQ((*multiply)[1].kind, TokenKind::kMul);
}

TEST(LexerTest, OperatorNameDisambiguation) {
  // 'and' after an operand is the operator; at expression start it's a name.
  auto op = Tokenize("a and b");
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)[1].kind, TokenKind::kAnd);

  auto name = Tokenize("and");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ((*name)[0].kind, TokenKind::kName);
  EXPECT_EQ((*name)[0].text, "and");

  auto axis = Tokenize("child::div");
  ASSERT_TRUE(axis.ok());
  EXPECT_EQ((*axis)[2].kind, TokenKind::kName);
  EXPECT_EQ((*axis)[2].text, "div");
}

TEST(LexerTest, NumbersIncludingLeadingDot) {
  auto tokens = Tokenize(".5 + 42 + 3.25");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, 0.5);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 42.0);
  EXPECT_DOUBLE_EQ((*tokens)[4].number, 3.25);
}

TEST(LexerTest, Literals) {
  auto tokens = Tokenize("'one' \"two\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "one");
  EXPECT_EQ((*tokens)[1].text, "two");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("ns:tag").ok());
  EXPECT_FALSE(Tokenize("#").ok());
}

// --- parser structure ---

TEST(ParserTest, SimplePath) {
  Query q = MustParse("/descendant::a/child::b");
  const auto& path = q.root().As<PathExpr>();
  EXPECT_TRUE(path.absolute());
  ASSERT_EQ(path.step_count(), 2u);
  EXPECT_EQ(path.step(0).axis, Axis::kDescendant);
  EXPECT_EQ(path.step(0).test.name, "a");
  EXPECT_EQ(path.step(1).axis, Axis::kChild);
}

TEST(ParserTest, DefaultAxisIsChild) {
  Query q = MustParse("a/b");
  const auto& path = q.root().As<PathExpr>();
  EXPECT_FALSE(path.absolute());
  EXPECT_EQ(path.step(0).axis, Axis::kChild);
  EXPECT_EQ(path.step(1).axis, Axis::kChild);
}

TEST(ParserTest, DoubleSlashExpansion) {
  Query q = MustParse("//a");
  const auto& path = q.root().As<PathExpr>();
  ASSERT_EQ(path.step_count(), 2u);
  EXPECT_EQ(path.step(0).axis, Axis::kDescendantOrSelf);
  EXPECT_EQ(path.step(0).test.kind, NodeTest::Kind::kNode);
  EXPECT_EQ(path.step(1).test.name, "a");

  Query q2 = MustParse("a//b");
  EXPECT_EQ(q2.root().As<PathExpr>().step_count(), 3u);
}

TEST(ParserTest, DotAndDotDot) {
  Query q = MustParse("./..");
  const auto& path = q.root().As<PathExpr>();
  EXPECT_EQ(path.step(0).axis, Axis::kSelf);
  EXPECT_EQ(path.step(1).axis, Axis::kParent);
}

TEST(ParserTest, BareSlashIsRootPath) {
  Query q = MustParse("/");
  const auto& path = q.root().As<PathExpr>();
  EXPECT_TRUE(path.absolute());
  EXPECT_EQ(path.step_count(), 0u);
}

TEST(ParserTest, AllElevenAxes) {
  for (int a = 0; a < kNumAxes; ++a) {
    Axis axis = static_cast<Axis>(a);
    std::string text = std::string(AxisName(axis)) + "::t0";
    Query q = MustParse(text);
    EXPECT_EQ(q.root().As<PathExpr>().step(0).axis, axis) << text;
  }
}

TEST(ParserTest, Predicates) {
  Query q = MustParse("child::a[descendant::b][position() = last()]");
  const Step& step = q.root().As<PathExpr>().step(0);
  ASSERT_EQ(step.predicates.size(), 2u);
  EXPECT_EQ(step.predicates[0]->kind(), Expr::Kind::kPath);
  EXPECT_EQ(step.predicates[1]->kind(), Expr::Kind::kBinary);
}

TEST(ParserTest, PrecedenceOrAndBinds) {
  // or < and: a or b and c == a or (b and c)
  Query q = MustParse("self::a or self::b and self::c");
  const auto& root = q.root().As<BinaryExpr>();
  EXPECT_EQ(root.op(), BinaryOp::kOr);
  EXPECT_EQ(root.rhs().As<BinaryExpr>().op(), BinaryOp::kAnd);
}

TEST(ParserTest, PrecedenceArithmeticOverComparison) {
  Query q = MustParse("1 + 2 * 3 = 7");
  const auto& eq = q.root().As<BinaryExpr>();
  EXPECT_EQ(eq.op(), BinaryOp::kEq);
  const auto& add = eq.lhs().As<BinaryExpr>();
  EXPECT_EQ(add.op(), BinaryOp::kAdd);
  EXPECT_EQ(add.rhs().As<BinaryExpr>().op(), BinaryOp::kMul);
}

TEST(ParserTest, RelationalChainsLeftAssociative) {
  // 1 < 2 < 3 parses as (1 < 2) < 3 per the XPath grammar.
  Query q = MustParse("1 < 2 < 3");
  const auto& outer = q.root().As<BinaryExpr>();
  EXPECT_EQ(outer.op(), BinaryOp::kLt);
  EXPECT_EQ(outer.lhs().As<BinaryExpr>().op(), BinaryOp::kLt);
  EXPECT_EQ(outer.rhs().As<NumberLiteral>().value(), 3.0);
}

TEST(ParserTest, UnaryMinus) {
  Query q = MustParse("-2 + 3");
  const auto& add = q.root().As<BinaryExpr>();
  EXPECT_EQ(add.op(), BinaryOp::kAdd);
  EXPECT_EQ(add.lhs().kind(), Expr::Kind::kNegate);
}

TEST(ParserTest, UnionFlattens) {
  Query q = MustParse("a | b | c");
  const auto& u = q.root().As<UnionExpr>();
  EXPECT_EQ(u.branch_count(), 3u);
}

TEST(ParserTest, FunctionCalls) {
  Query q = MustParse("not(count(child::a) >= 2)");
  const auto& call = q.root().As<FunctionCall>();
  EXPECT_EQ(call.function(), Function::kNot);
  const auto& cmp = call.arg(0).As<BinaryExpr>();
  EXPECT_EQ(cmp.op(), BinaryOp::kGe);
  EXPECT_EQ(cmp.lhs().As<FunctionCall>().function(), Function::kCount);
}

TEST(ParserTest, NodeTestVariants) {
  EXPECT_EQ(MustParse("child::*").root().As<PathExpr>().step(0).test.kind,
            NodeTest::Kind::kAny);
  EXPECT_EQ(MustParse("child::node()").root().As<PathExpr>().step(0).test.kind,
            NodeTest::Kind::kNode);
  EXPECT_EQ(MustParse("child::node").root().As<PathExpr>().step(0).test.name,
            "node");  // plain tag named "node"
}

TEST(ParserTest, ParenthesizedExpression) {
  Query q = MustParse("(1 + 2) * 3");
  const auto& mul = q.root().As<BinaryExpr>();
  EXPECT_EQ(mul.op(), BinaryOp::kMul);
  EXPECT_EQ(mul.lhs().As<BinaryExpr>().op(), BinaryOp::kAdd);
}

TEST(ParserTest, QueryIdsAreDense) {
  Query q = MustParse("/descendant::a[child::b and not(child::c)]/child::d");
  EXPECT_GT(q.num_exprs(), 0);
  EXPECT_EQ(q.num_steps(), 4);  // descendant::a, child::b, child::c, child::d
  for (int i = 0; i < q.num_exprs(); ++i) EXPECT_EQ(q.expr(i).id(), i);
  for (int i = 0; i < q.num_steps(); ++i) EXPECT_EQ(q.step(i).id, i);
  EXPECT_EQ(q.size(), q.num_exprs() + q.num_steps());
}

// --- parser errors ---

void ExpectQueryError(std::string_view text, std::string_view fragment) {
  auto q = ParseQuery(text);
  ASSERT_FALSE(q.ok()) << "expected failure for: " << text;
  EXPECT_NE(q.status().message().find(fragment), std::string::npos)
      << q.status().message();
}

TEST(ParserErrorTest, AttributeAxisRejected) {
  ExpectQueryError("@id", "attribute axis");
  ExpectQueryError("attribute::id", "attribute axis");
  ExpectQueryError("a/@id", "attribute axis");
}

TEST(ParserErrorTest, NamespaceAxisRejected) {
  ExpectQueryError("namespace::x", "namespace axis");
}

TEST(ParserErrorTest, VariablesRejected) {
  ExpectQueryError("$x + 1", "variables are not supported");
}

TEST(ParserErrorTest, UnknownAxis) { ExpectQueryError("sideways::a", "unknown axis"); }

TEST(ParserErrorTest, UnknownFunction) {
  ExpectQueryError("frobnicate(1)", "unknown function");
}

TEST(ParserErrorTest, Arity) {
  ExpectQueryError("position(1)", "expects 0");
  ExpectQueryError("not()", "expects 1");
  ExpectQueryError("contains('a')", "expects 2");
  ExpectQueryError("concat('a')", "2 or more");
}

TEST(ParserErrorTest, TrailingGarbage) {
  ExpectQueryError("child::a)", "after complete expression");
}

TEST(ParserErrorTest, DanglingSlash) { ExpectQueryError("a/", "expected a step"); }

TEST(ParserErrorTest, EmptyPredicate) {
  ExpectQueryError("a[]", "expected an expression");
}

TEST(ParserErrorTest, UnionOfNonPaths) {
  ExpectQueryError("1 | child::a", "operands of '|'");
}

TEST(ParserErrorTest, TextNodeTest) {
  ExpectQueryError("child::text()", "text() node tests are not supported");
}

// --- nesting bound ---

// Each hostile shape below, built at `levels`, reaches exactly that parser
// nesting or expression-tree depth.
std::string NestedPredicates(int levels) {  // a[a[...b...]]
  std::string query;
  for (int i = 1; i < levels; ++i) query += "a[";
  query += "b";
  query.append(static_cast<size_t>(levels - 1), ']');
  return query;
}

std::string NestedParens(int levels) {  // ((...(1)...))
  const size_t parens = static_cast<size_t>(levels - 1);
  return std::string(parens, '(') + "1" + std::string(parens, ')');
}

std::string LongSum(int levels) {  // 1+1+...+1, a left-deep tree
  std::string query = "1";
  for (int i = 1; i < levels; ++i) query += "+1";
  return query;
}

std::string MinusChain(int levels) {  // - - ... - 1
  std::string query;
  for (int i = 1; i < levels; ++i) query += "- ";
  return query + "1";
}

// Each of these overflowed the stack before the bound (nested predicates
// from ~3,000 levels, parentheses in QueryService::Submit from ~4,000, the
// sum in a later pass over the parsed tree): now a typed error.
TEST(ParserDepthTest, HostileNestingIsRejectedNotOverflowed) {
  for (auto shape : {NestedPredicates, NestedParens, LongSum, MinusChain}) {
    const std::string query = shape(100000);
    auto parsed = ParseQuery(query);
    ASSERT_FALSE(parsed.ok()) << query.substr(0, 40);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("nests deeper than"),
              std::string::npos)
        << parsed.status().message();
  }
  // The ~9 KB query that killed the wire server.
  EXPECT_EQ(NestedPredicates(3001).size(), 9001u);
  EXPECT_FALSE(ParseQuery(NestedPredicates(3001)).ok());
}

TEST(ParserDepthTest, BoundIsExactForEveryShape) {
  for (auto shape : {NestedPredicates, NestedParens, LongSum, MinusChain}) {
    auto at = ParseQuery(shape(kMaxQueryDepth));
    EXPECT_TRUE(at.ok()) << at.status().ToString();
    auto past = ParseQuery(shape(kMaxQueryDepth + 1));
    ASSERT_FALSE(past.ok());
    EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
  }
  // The error names the offset where the bound was crossed: the token
  // after the opening parenthesis that opens one level too many.
  ExpectQueryError(NestedParens(kMaxQueryDepth + 1),
                   "offset " + std::to_string(kMaxQueryDepth));
}

// --- printer round-trips ---

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  Query first = MustParse(GetParam());
  std::string printed = ToXPathString(first);
  Query second = MustParse(printed);
  EXPECT_EQ(ToXPathString(second), printed) << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "/", "child::a", "/descendant::a/child::b",
        "/descendant-or-self::*[self::R and descendant-or-self::*[self::O1]]",
        "child::a[descendant::c and not(following-sibling::d)]",
        "child::a[position() + 1 = last()]",
        "a | b | c/d", "a | (b | c)",
        "1 + 2 * 3 - 4 div 5 mod 6", "-(1 + 2)", "- -3",
        "not(child::a or child::b)",
        "count(descendant::t1) >= 2 and sum(child::t2) < 10",
        "concat('a', \"b\", string(child::c))",
        "self::*[contains(name(), 't')]",
        "preceding-sibling::t0[last()]",
        "ancestor-or-self::*[position() = 1]/following::t3",
        "child::a[2][child::b]",
        "string-length(normalize-space('  x  ')) = 1",
        "boolean(child::a) and true() or false()",
        "floor(3.5) + ceiling(0.25) + round(2.5)",
        "'plain' != \"quote\""));

TEST(PrinterTest, CanonicalAxes) {
  EXPECT_EQ(ToXPathString(MustParse("a//b")),
            "child::a/descendant-or-self::node()/child::b");
  EXPECT_EQ(ToXPathString(MustParse(".")), "self::node()");
  EXPECT_EQ(ToXPathString(MustParse("..")), "parent::node()");
}

TEST(PrinterTest, MinimalParentheses) {
  EXPECT_EQ(ToXPathString(MustParse("1 + 2 * 3")), "1 + 2 * 3");
  EXPECT_EQ(ToXPathString(MustParse("(1 + 2) * 3")), "(1 + 2) * 3");
  EXPECT_EQ(ToXPathString(MustParse("self::a and (self::b or self::c)")),
            "self::a and (self::b or self::c)");
}

}  // namespace
}  // namespace gkx::xpath
