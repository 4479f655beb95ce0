// XPath 1.0 values (boolean, number, string, node-set) with the coercion and
// comparison semantics of the W3C recommendation restricted to our element
// data model. All evaluators share these semantics — agreement between them
// is the core differential-test invariant of this repository.

#ifndef GKX_EVAL_VALUE_HPP_
#define GKX_EVAL_VALUE_HPP_

#include <string>
#include <utility>

#include "base/status.hpp"
#include "eval/node_set.hpp"
#include "xml/document.hpp"
#include "xpath/ast.hpp"

namespace gkx::eval {

using xpath::ValueType;

/// A dynamically-typed XPath value.
class Value {
 public:
  Value() : type_(ValueType::kBoolean), boolean_(false) {}

  static Value Boolean(bool b) {
    Value v;
    v.type_ = ValueType::kBoolean;
    v.boolean_ = b;
    return v;
  }
  static Value Number(double n) {
    Value v;
    v.type_ = ValueType::kNumber;
    v.number_ = n;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = ValueType::kString;
    v.string_ = std::move(s);
    return v;
  }
  static Value Nodes(NodeSet nodes) {
    Value v;
    v.type_ = ValueType::kNodeSet;
    v.nodes_ = std::move(nodes);
    return v;
  }

  ValueType type() const { return type_; }
  bool is_node_set() const { return type_ == ValueType::kNodeSet; }

  bool boolean() const {
    GKX_CHECK(type_ == ValueType::kBoolean);
    return boolean_;
  }
  double number() const {
    GKX_CHECK(type_ == ValueType::kNumber);
    return number_;
  }
  const std::string& string() const {
    GKX_CHECK(type_ == ValueType::kString);
    return string_;
  }
  const NodeSet& nodes() const {
    GKX_CHECK(type_ == ValueType::kNodeSet);
    return nodes_;
  }
  NodeSet&& TakeNodes() && {
    GKX_CHECK(type_ == ValueType::kNodeSet);
    return std::move(nodes_);
  }

  /// boolean() coercion: node-set -> non-empty, number -> not 0 and not NaN,
  /// string -> non-empty.
  bool ToBoolean() const;

  /// number() coercion (node-set -> number(string-value of first node)).
  double ToNumber(const xml::Document& doc) const;

  /// string() coercion (node-set -> string-value of first node or "").
  std::string ToString(const xml::Document& doc) const;

  /// Structural equality (exact; no coercions). NaN != NaN.
  bool Equals(const Value& other) const;

  /// Debug rendering ("boolean(true)", "node-set{1,4,7}", ...).
  std::string DebugString() const;

 private:
  ValueType type_;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  NodeSet nodes_;
};

/// XPath comparison `lhs op rhs` with the full §3.4 node-set existential
/// semantics. `op` must be a relational operator.
bool CompareValues(const xml::Document& doc, xpath::BinaryOp op,
                   const Value& lhs, const Value& rhs);

/// XPath round(): floor(x + 0.5) with NaN/∞ passed through.
double XPathRound(double value);

}  // namespace gkx::eval

#endif  // GKX_EVAL_VALUE_HPP_
