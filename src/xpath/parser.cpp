#include "xpath/parser.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "xpath/build.hpp"
#include "xpath/lexer.hpp"

namespace gkx::xpath {
namespace {

/// A parsed subexpression and the depth of its tree (a leaf is 1).
struct Parsed {
  ExprPtr expr;
  int depth = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Run() {
    Parsed parsed;
    GKX_ASSIGN_OR_RETURN(parsed, ParseExpr());
    if (Peek().kind != TokenKind::kEof) {
      return Error("unexpected ", TokenKindName(Peek().kind),
                   " after complete expression");
    }
    return Query::Create(std::move(parsed.expr));
  }

 private:
  // Stack discipline: the functions on the recursion path (ParseExpr down
  // to ParseStep) keep few locals. Error messages are assembled inside
  // Error from string_view pieces, and the non-recursive work (leaf
  // tokens, axis and node test, arity, closing tokens) lives in
  // out-of-line helpers, so their temporaries never pile up per nesting
  // level. kMaxQueryDepth levels must fit a thread's stack in sanitizer
  // builds too, where every temporary gets its own padded slot.

  const Token& Peek(size_t lookahead = 0) const {
    size_t i = pos_ + lookahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;  // kEof
    return tokens_[i];
  }

  const Token& Take() {
    const Token& token = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return token;
  }

  bool Match(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Take();
    return true;
  }

  [[gnu::noinline]] Status Expect(TokenKind kind, std::string_view context) {
    if (Match(kind)) return Status::Ok();
    return Error(std::string("expected ") + std::string(TokenKindName(kind)) +
                 " " + std::string(context) + ", found " +
                 std::string(TokenKindName(Peek().kind)));
  }

  [[gnu::noinline]] Status Error(std::string_view a, std::string_view b = {},
                                 std::string_view c = {}) const {
    std::string message =
        "XPath parse error at offset " + std::to_string(Peek().offset) + ": ";
    message.append(a).append(b).append(c);
    return InvalidArgumentError(std::move(message));
  }

  [[gnu::noinline]] Status TooDeep() const {
    return Error("query nests deeper than ", std::to_string(kMaxQueryDepth),
                 " levels");
  }

  /// Wraps a node built over children of depth `child_depth`, checking the
  /// tree bound before the node exists.
  template <typename Build>
  Result<Parsed> Node(int child_depth, Build build) const {
    if (child_depth + 1 > kMaxQueryDepth) return TooDeep();
    return Parsed{build(), child_depth + 1};
  }

  // Expr := OrExpr. Every nested expression enters here (parentheses,
  // predicates, function arguments), so this is where recursion is bounded.
  Result<Parsed> ParseExpr() {
    if (++nesting_ > kMaxQueryDepth) return TooDeep();
    Result<Parsed> expr = ParseBinary(0);
    --nesting_;
    return expr;
  }

  // Precedence climbing: parses a chain of operators binding at least as
  // tightly as `min_level`. Every level is left-associative, so a chain
  // loops here; only a tighter-binding right operand recurses, at most once
  // per level.
  Result<Parsed> ParseBinary(int min_level) {
    Parsed lhs;
    GKX_ASSIGN_OR_RETURN(lhs, ParseUnary());
    BinaryOp op;
    int level = 0;
    while (PeekOperator(&op, &level) && level >= min_level) {
      Take();
      Parsed rhs;
      GKX_ASSIGN_OR_RETURN(rhs, ParseBinary(level + 1));
      GKX_ASSIGN_OR_RETURN(
          lhs, Node(std::max(lhs.depth, rhs.depth), [&] {
            return build::Binary(op, std::move(lhs.expr), std::move(rhs.expr));
          }));
    }
    return lhs;
  }

  // The binary operator at the cursor and its level: 0=or 1=and
  // 2=equality 3=relational 4=additive 5=multiplicative.
  bool PeekOperator(BinaryOp* op, int* level) const {
    switch (Peek().kind) {
      case TokenKind::kOr: *op = BinaryOp::kOr; *level = 0; return true;
      case TokenKind::kAnd: *op = BinaryOp::kAnd; *level = 1; return true;
      case TokenKind::kEq: *op = BinaryOp::kEq; *level = 2; return true;
      case TokenKind::kNe: *op = BinaryOp::kNe; *level = 2; return true;
      case TokenKind::kLt: *op = BinaryOp::kLt; *level = 3; return true;
      case TokenKind::kLe: *op = BinaryOp::kLe; *level = 3; return true;
      case TokenKind::kGt: *op = BinaryOp::kGt; *level = 3; return true;
      case TokenKind::kGe: *op = BinaryOp::kGe; *level = 3; return true;
      case TokenKind::kPlus: *op = BinaryOp::kAdd; *level = 4; return true;
      case TokenKind::kMinus: *op = BinaryOp::kSub; *level = 4; return true;
      case TokenKind::kMul: *op = BinaryOp::kMul; *level = 5; return true;
      case TokenKind::kDiv: *op = BinaryOp::kDiv; *level = 5; return true;
      case TokenKind::kMod: *op = BinaryOp::kMod; *level = 5; return true;
      default: return false;
    }
  }

  // UnaryExpr := '-' UnaryExpr | UnionExpr
  Result<Parsed> ParseUnary() {
    if (!Match(TokenKind::kMinus)) return ParseUnion();
    if (++nesting_ > kMaxQueryDepth) return TooDeep();
    Parsed operand;
    GKX_ASSIGN_OR_RETURN(operand, ParseUnary());
    --nesting_;
    return Node(operand.depth,
                [&] { return build::Negate(std::move(operand.expr)); });
  }

  // UnionExpr := PathOrPrimary ('|' PathOrPrimary)*
  Result<Parsed> ParseUnion() {
    Parsed first;
    GKX_ASSIGN_OR_RETURN(first, ParsePathOrPrimary());
    if (Peek().kind != TokenKind::kPipe) return first;
    int depth = first.depth;
    std::vector<ExprPtr> branches;
    branches.push_back(std::move(first.expr));
    while (Match(TokenKind::kPipe)) {
      Parsed next;
      GKX_ASSIGN_OR_RETURN(next, ParsePathOrPrimary());
      depth = std::max(depth, next.depth);
      branches.push_back(std::move(next.expr));
    }
    for (const ExprPtr& branch : branches) {
      const Expr::Kind kind = branch->kind();
      if (kind != Expr::Kind::kPath && kind != Expr::Kind::kUnion) {
        return Error("operands of '|' must be location paths");
      }
    }
    // Flatten nested unions (parenthesized unions are still location-path
    // typed, so keep them as branches; only direct nesting is flattened by
    // associativity of the loop above).
    return Node(depth, [&] { return build::Union(std::move(branches)); });
  }

  Result<Parsed> ParsePathOrPrimary() {
    switch (Peek().kind) {
      case TokenKind::kLParen: {
        Take();
        Parsed inner;
        GKX_ASSIGN_OR_RETURN(inner, ParseExpr());
        GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close '('"));
        return inner;
      }
      case TokenKind::kName:
        // Function call if followed by '(' and not the node() node test.
        if (Peek(1).kind == TokenKind::kLParen && Peek().text != "node") {
          return ParseFunctionCall();
        }
        return ParseLocationPath();
      case TokenKind::kSlash:
      case TokenKind::kDoubleSlash:
      case TokenKind::kStar:
      case TokenKind::kDot:
      case TokenKind::kDotDot:
        return ParseLocationPath();
      default:
        return ParseLeaf();
    }
  }

  /// Number and string literals, and the tokens no expression starts with.
  [[gnu::noinline]] Result<Parsed> ParseLeaf() {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber:
        return Parsed{build::Number(Take().number)};
      case TokenKind::kLiteral:
        return Parsed{build::Str(Take().text)};
      case TokenKind::kDollar:
        return Error("variables are not supported");
      case TokenKind::kAt:
        return Error("the attribute axis is not supported (outside the "
                     "paper's fragments)");
      default:
        return Error("expected an expression, found ",
                     TokenKindName(token.kind));
    }
  }

  Result<Parsed> ParseFunctionCall() {
    const std::string& name = Take().text;
    Function function;
    if (!FunctionFromName(name, &function)) {
      return Error("unknown function '", name, "'");
    }
    GKX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "after function name"));
    int depth = 0;
    std::vector<ExprPtr> args;
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        Parsed arg;
        GKX_ASSIGN_OR_RETURN(arg, ParseExpr());
        depth = std::max(depth, arg.depth);
        args.push_back(std::move(arg.expr));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close the argument list"));
    GKX_RETURN_IF_ERROR(CheckArity(function, args.size()));
    return Node(depth, [&] { return build::Call(function, std::move(args)); });
  }

  [[gnu::noinline]] Status CheckArity(Function function, size_t argc) {
    auto arity_error = [&](std::string_view expected) {
      return Error(std::string(FunctionName(function)) + "() expects " +
                   std::string(expected) + " argument(s), got " +
                   std::to_string(argc));
    };
    switch (function) {
      case Function::kPosition:
      case Function::kLast:
      case Function::kTrue:
      case Function::kFalse:
        return argc == 0 ? Status::Ok() : arity_error("0");
      case Function::kNot:
      case Function::kBoolean:
      case Function::kCount:
      case Function::kSum:
      case Function::kFloor:
      case Function::kCeiling:
      case Function::kRound:
        return argc == 1 ? Status::Ok() : arity_error("1");
      case Function::kNumber:
      case Function::kString:
      case Function::kStringLength:
      case Function::kNormalizeSpace:
      case Function::kName:
      case Function::kLocalName:
        return argc <= 1 ? Status::Ok() : arity_error("0 or 1");
      case Function::kContains:
      case Function::kStartsWith:
      case Function::kSubstringBefore:
      case Function::kSubstringAfter:
        return argc == 2 ? Status::Ok() : arity_error("2");
      case Function::kSubstring:
        return argc == 2 || argc == 3 ? Status::Ok() : arity_error("2 or 3");
      case Function::kTranslate:
        return argc == 3 ? Status::Ok() : arity_error("3");
      case Function::kConcat:
        return argc >= 2 ? Status::Ok() : arity_error("2 or more");
    }
    return Status::Ok();
  }

  Result<Parsed> ParseLocationPath() {
    bool absolute = false;
    int depth = 0;  // deepest predicate
    std::vector<Step> steps;
    if (Match(TokenKind::kSlash)) {
      absolute = true;
      if (!StartsStep()) {
        return Parsed{build::Path(true, {})};  // bare "/"
      }
    } else if (Match(TokenKind::kDoubleSlash)) {
      absolute = true;
      steps.push_back(build::MakeStep(Axis::kDescendantOrSelf, NodeTest::AllNodes()));
      if (!StartsStep()) return Error("expected a step after '//'");
    }
    while (true) {
      Step step;
      GKX_RETURN_IF_ERROR(ParseStep(&step, &depth));
      steps.push_back(std::move(step));
      if (Match(TokenKind::kSlash)) {
        if (!StartsStep()) return Error("expected a step after '/'");
        continue;
      }
      if (Match(TokenKind::kDoubleSlash)) {
        steps.push_back(
            build::MakeStep(Axis::kDescendantOrSelf, NodeTest::AllNodes()));
        if (!StartsStep()) return Error("expected a step after '//'");
        continue;
      }
      break;
    }
    return Node(depth,
                [&] { return build::Path(absolute, std::move(steps)); });
  }

  bool StartsStep() const {
    switch (Peek().kind) {
      case TokenKind::kName:
      case TokenKind::kStar:
      case TokenKind::kDot:
      case TokenKind::kDotDot:
      case TokenKind::kAt:
        return true;
      default:
        return false;
    }
  }

  /// Parses one step into the default-constructed `*out`; raises `*depth`
  /// to the deepest predicate of the step.
  Status ParseStep(Step* out, int* depth) {
    if (Match(TokenKind::kDot)) {
      *out = build::MakeStep(Axis::kSelf, NodeTest::AllNodes());
      return Status::Ok();
    }
    if (Match(TokenKind::kDotDot)) {
      *out = build::MakeStep(Axis::kParent, NodeTest::AllNodes());
      return Status::Ok();
    }
    GKX_RETURN_IF_ERROR(ParseAxisAndNodeTest(out));
    while (Match(TokenKind::kLBracket)) {
      Parsed predicate;
      GKX_ASSIGN_OR_RETURN(predicate, ParseExpr());
      *depth = std::max(*depth, predicate.depth);
      out->predicates.push_back(std::move(predicate.expr));
      GKX_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "to close the predicate"));
    }
    return Status::Ok();
  }

  [[gnu::noinline]] Status ParseAxisAndNodeTest(Step* out) {
    if (Peek().kind == TokenKind::kAt) {
      return Error("the attribute axis is not supported (outside the paper's "
                   "fragments)");
    }
    if (Peek().kind == TokenKind::kName &&
        Peek(1).kind == TokenKind::kDoubleColon) {
      const std::string& axis_name = Take().text;
      Take();  // '::'
      if (!AxisFromName(axis_name, &out->axis)) {
        if (axis_name == "attribute" || axis_name == "namespace") {
          return Error("the ", axis_name,
                       " axis is not supported (outside the paper's "
                       "fragments)");
        }
        return Error("unknown axis '", axis_name, "'");
      }
    }
    if (Match(TokenKind::kStar)) {
      out->test = NodeTest::Any();
      return Status::Ok();
    }
    if (Peek().kind != TokenKind::kName) {
      return Error("expected a node test, found ", TokenKindName(Peek().kind));
    }
    const std::string& name = Take().text;
    if (name == "node" && Peek().kind == TokenKind::kLParen) {
      Take();
      GKX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "to close node()"));
      out->test = NodeTest::AllNodes();
    } else if (name == "text" && Peek().kind == TokenKind::kLParen) {
      return Error("text() node tests are not supported (the data model "
                   "attaches text to elements)");
    } else {
      out->test = NodeTest::Name(name);
    }
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;  // open ParseExpr / unary-minus levels
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.Run();
}

Query MustParse(std::string_view text) {
  auto query = ParseQuery(text);
  if (!query.ok()) {
    std::fprintf(stderr, "MustParse(\"%.*s\") failed: %s\n",
                 static_cast<int>(text.size()), text.data(),
                 query.status().ToString().c_str());
    std::abort();
  }
  return std::move(query).value();
}

}  // namespace gkx::xpath
