// XPath abstract syntax. Covers the grammar union of the paper's fragments:
//   * Core XPath (Def 2.5): location paths over the 11 axes, node tests,
//     predicate conditions with and/or/not, path composition, union;
//   * the Wadler fragment WF (Def 2.6): position()/last(), number constants,
//     arithmetic and relational operators;
//   * the extra constructs pXPath regulates (Def 6.1): boolean()/count()/
//     sum()/string()/number()/concat()/string functions, string literals.
// Attribute/namespace axes and variables are outside every fragment the paper
// studies and are rejected by the parser.
//
// Ownership: expressions form a unique_ptr tree. A finished tree is wrapped
// in a Query, which assigns dense ids to every expression and every step
// (evaluators key their memo tables by these ids), exposes a flat index, and
// holds the tree's static analysis (xpath/analysis.hpp), computed once.

#ifndef GKX_XPATH_AST_HPP_
#define GKX_XPATH_AST_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/check.hpp"

namespace gkx::xpath {

/// The 11 axes of the paper (Def 2.5).
enum class Axis {
  kSelf,
  kChild,
  kParent,
  kDescendant,
  kDescendantOrSelf,
  kAncestor,
  kAncestorOrSelf,
  kFollowing,
  kFollowingSibling,
  kPreceding,
  kPrecedingSibling,
};

inline constexpr int kNumAxes = 11;

/// XPath name of an axis ("descendant-or-self", ...).
std::string_view AxisName(Axis axis);

/// Parses an axis name; returns false if unknown.
bool AxisFromName(std::string_view name, Axis* out);

/// True for axes whose proximity order is reverse document order
/// (ancestor, ancestor-or-self, preceding, preceding-sibling).
bool IsReverseAxis(Axis axis);

/// A node test: a tag name, '*', or node().
struct NodeTest {
  enum class Kind { kName, kAny, kNode };
  Kind kind = Kind::kAny;
  std::string name;  // only for kName

  static NodeTest Any() { return NodeTest{Kind::kAny, {}}; }
  static NodeTest AllNodes() { return NodeTest{Kind::kNode, {}}; }
  static NodeTest Name(std::string_view n) {
    return NodeTest{Kind::kName, std::string(n)};
  }
  std::string ToString() const;
};

/// Binary operators, in increasing precedence groups.
enum class BinaryOp {
  kOr,
  kAnd,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

std::string_view BinaryOpName(BinaryOp op);
bool IsRelationalOp(BinaryOp op);  // = != < <= > >=
bool IsArithmeticOp(BinaryOp op);  // + - * div mod

/// XPath arithmetic on numbers. `op` must be an arithmetic operator. div/mod
/// follow IEEE/XPath (mod keeps the dividend's sign; division by zero yields
/// ±Infinity/NaN). The evaluators and the optimizer's constant fold share it.
double ArithmeticOp(BinaryOp op, double lhs, double rhs);

/// `lhs op rhs` on numbers (NaN compares false, except under !=). `op` must
/// be a relational operator.
bool CompareNumbers(BinaryOp op, double lhs, double rhs);

/// Built-in functions (the XPath 1.0 core library subset used by the paper's
/// fragment definitions).
enum class Function {
  kPosition,
  kLast,
  kNot,
  kTrue,
  kFalse,
  kBoolean,
  kNumber,
  kString,
  kCount,
  kSum,
  kConcat,
  kContains,
  kStartsWith,
  kStringLength,
  kNormalizeSpace,
  kSubstring,
  kSubstringBefore,
  kSubstringAfter,
  kTranslate,
  kFloor,
  kCeiling,
  kRound,
  kName,
  kLocalName,
};

std::string_view FunctionName(Function function);
bool FunctionFromName(std::string_view name, Function* out);

/// Static XPath 1.0 type of an expression.
enum class ValueType { kNodeSet, kBoolean, kNumber, kString };
std::string_view ValueTypeName(ValueType type);

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One location step: axis '::' node-test followed by zero or more
/// predicates. Iterated predicates ([e1][e2]...) re-rank positions between
/// filters (this is exactly the power Theorem 5.7 exploits).
struct Step {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<ExprPtr> predicates;

  /// Dense step id within the owning Query (assigned by Query).
  int id = -1;
};

/// Base of all expressions.
class Expr {
 public:
  enum class Kind {
    kNumberLiteral,
    kStringLiteral,
    kBinary,
    kNegate,
    kFunctionCall,
    kPath,
    kUnion,
  };

  virtual ~Expr() = default;
  Kind kind() const { return kind_; }

  /// Dense expression id within the owning Query (assigned by Query).
  int id() const { return id_; }

  /// Downcast helper; checked against the kind tag (each subclass names
  /// its kind as T::kKind), so a wrong cast aborts without an RTTI walk.
  template <typename T>
  const T& As() const {
    GKX_CHECK(kind_ == T::kKind);
    return static_cast<const T&>(*this);
  }

 protected:
  explicit Expr(Kind kind) : kind_(kind) {}

 private:
  friend class Query;
  Kind kind_;
  int id_ = -1;
};

/// A numeric constant.
class NumberLiteral : public Expr {
 public:
  static constexpr Kind kKind = Kind::kNumberLiteral;

  explicit NumberLiteral(double value) : Expr(kKind), value_(value) {}
  double value() const { return value_; }

 private:
  double value_;
};

/// A string literal.
class StringLiteral : public Expr {
 public:
  static constexpr Kind kKind = Kind::kStringLiteral;

  explicit StringLiteral(std::string value)
      : Expr(kKind), value_(std::move(value)) {}
  const std::string& value() const { return value_; }

 private:
  std::string value_;
};

/// lhs op rhs.
class BinaryExpr : public Expr {
 public:
  static constexpr Kind kKind = Kind::kBinary;

  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(kKind), op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {
    GKX_CHECK(lhs_ != nullptr && rhs_ != nullptr);
  }
  BinaryOp op() const { return op_; }
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Unary minus.
class NegateExpr : public Expr {
 public:
  static constexpr Kind kKind = Kind::kNegate;

  explicit NegateExpr(ExprPtr operand)
      : Expr(kKind), operand_(std::move(operand)) {
    GKX_CHECK(operand_ != nullptr);
  }
  const Expr& operand() const { return *operand_; }

 private:
  ExprPtr operand_;
};

/// f(arg1, ..., argN).
class FunctionCall : public Expr {
 public:
  static constexpr Kind kKind = Kind::kFunctionCall;

  FunctionCall(Function function, std::vector<ExprPtr> args)
      : Expr(kKind), function_(function), args_(std::move(args)) {
    for (const ExprPtr& arg : args_) GKX_CHECK(arg != nullptr);
  }
  Function function() const { return function_; }
  size_t arg_count() const { return args_.size(); }
  const Expr& arg(size_t i) const { return *args_[i]; }

 private:
  Function function_;
  std::vector<ExprPtr> args_;
};

/// A location path: optional leading '/' (absolute) and a step sequence.
/// An absolute path with zero steps denotes the root node itself ("/").
class PathExpr : public Expr {
 public:
  static constexpr Kind kKind = Kind::kPath;

  PathExpr(bool absolute, std::vector<Step> steps)
      : Expr(kKind), absolute_(absolute), steps_(std::move(steps)) {
    GKX_CHECK(absolute_ || !steps_.empty());
  }
  bool absolute() const { return absolute_; }
  size_t step_count() const { return steps_.size(); }
  const Step& step(size_t i) const { return steps_[i]; }

 private:
  friend class Query;
  bool absolute_;
  std::vector<Step> steps_;
};

/// path1 | path2 | ... (at least two branches; parser flattens).
class UnionExpr : public Expr {
 public:
  static constexpr Kind kKind = Kind::kUnion;

  explicit UnionExpr(std::vector<ExprPtr> branches)
      : Expr(kKind), branches_(std::move(branches)) {
    GKX_CHECK_GE(branches_.size(), 2u);
    for (const ExprPtr& b : branches_) GKX_CHECK(b != nullptr);
  }
  size_t branch_count() const { return branches_.size(); }
  const Expr& branch(size_t i) const { return *branches_[i]; }

 private:
  std::vector<ExprPtr> branches_;
};

/// Static XPath 1.0 type of an expression.
ValueType StaticType(const Expr& expr);

/// The value of a position test (ExprTraits::position_test in
/// xpath/analysis.hpp: number literals, position(), last(), unary minus,
/// arithmetic on numbers, comparisons of two numbers, true()/false(), and
/// and/or/not() over booleans) in a boolean position, at a block of
/// consecutive positions first .. first + count - 1 (count ≤ kLanes) of one
/// size: one operator at a time across the block, with the interpreter's
/// operator definitions (ArithmeticOp, CompareNumbers). It keeps two blocks
/// of numbers and one of truth values per nesting level of the test, so its
/// memory is bounded by the test's depth, not by the number of positions.
/// The cvt engine's staged steps fill their per-size position masks through
/// it, and its boolean positions and the optimizer's constant fold evaluate
/// one context at a time through Truth. Anything but a position test
/// aborts.
class PositionBlock {
 public:
  static constexpr int kLanes = 256;

  /// truth[i] := the test at position first + i. In a predicate
  /// (`predicate`) a number-typed test holds where it equals the position;
  /// elsewhere a number converts with boolean().
  void Truths(const Expr& expr, bool predicate, double first, int count,
              double size, uint8_t* truth);

  /// The test at one context: a block of one position.
  bool Truth(const Expr& expr, bool predicate, double position, double size) {
    uint8_t truth = 0;
    Truths(expr, predicate, position, 1, size, &truth);
    return truth != 0;
  }

 private:
  struct Level {
    double lhs[kLanes];
    double rhs[kLanes];
    uint8_t truth[kLanes];
  };

  /// The scratch of nesting level `depth`, allocated on first use. Each
  /// level is a heap object of its own, so a reference stays valid while
  /// deeper levels are added.
  Level& At(size_t depth);
  void Numbers(const Expr& expr, size_t depth, double* out);
  void Booleans(const Expr& expr, size_t depth, uint8_t* out);

  double first_ = 0.0;  // the block being evaluated
  int count_ = 0;
  double size_ = 0.0;
  std::vector<std::unique_ptr<Level>> levels_;
};

struct QueryAnalysis;  // xpath/analysis.hpp

/// An immutable, id-indexed query. Construct with Query::Create; after that
/// the tree never moves, so Expr*/Step* remain valid for the Query lifetime.
class Query {
 public:
  /// Wraps an expression tree, assigning dense ids (preorder), and analyzes
  /// it (xpath::Analyze) — the one analysis every consumer reads.
  static Query Create(ExprPtr root);

  Query(Query&&) noexcept;
  Query& operator=(Query&&) noexcept;
  ~Query();

  const Expr& root() const { return *root_; }

  /// The static analysis of this query (xpath/analysis.hpp).
  const QueryAnalysis& analysis() const { return *analysis_; }

  /// Number of expressions / steps (ids are dense in [0, count)).
  int num_exprs() const { return static_cast<int>(exprs_.size()); }
  int num_steps() const { return static_cast<int>(steps_.size()); }

  const Expr& expr(int id) const {
    GKX_CHECK(id >= 0 && id < num_exprs());
    return *exprs_[static_cast<size_t>(id)];
  }
  const Step& step(int id) const {
    GKX_CHECK(id >= 0 && id < num_steps());
    return *steps_[static_cast<size_t>(id)];
  }

  /// Syntactic size |Q|: number of expression nodes plus steps.
  int size() const { return num_exprs() + num_steps(); }

 private:
  Query() = default;
  void Index(Expr* expr);

  ExprPtr root_;
  std::vector<Expr*> exprs_;
  std::vector<Step*> steps_;
  std::unique_ptr<const QueryAnalysis> analysis_;
};

}  // namespace gkx::xpath

#endif  // GKX_XPATH_AST_HPP_
