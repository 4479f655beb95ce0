#include "eval/value.hpp"

#include <cmath>

#include "base/string_util.hpp"

namespace gkx::eval {

using xpath::BinaryOp;
using xpath::CompareNumbers;

bool Value::ToBoolean() const {
  switch (type_) {
    case ValueType::kBoolean:
      return boolean_;
    case ValueType::kNumber:
      return number_ != 0.0 && !std::isnan(number_);
    case ValueType::kString:
      return !string_.empty();
    case ValueType::kNodeSet:
      return !nodes_.empty();
  }
  GKX_CHECK(false);
  return false;
}

double Value::ToNumber(const xml::Document& doc) const {
  switch (type_) {
    case ValueType::kBoolean:
      return boolean_ ? 1.0 : 0.0;
    case ValueType::kNumber:
      return number_;
    case ValueType::kString:
      return ParseXPathNumber(string_);
    case ValueType::kNodeSet:
      return ParseXPathNumber(ToString(doc));
  }
  GKX_CHECK(false);
  return 0.0;
}

std::string Value::ToString(const xml::Document& doc) const {
  switch (type_) {
    case ValueType::kBoolean:
      return boolean_ ? "true" : "false";
    case ValueType::kNumber:
      return FormatXPathNumber(number_);
    case ValueType::kString:
      return string_;
    case ValueType::kNodeSet:
      return nodes_.empty() ? std::string() : doc.StringValue(nodes_.front());
  }
  GKX_CHECK(false);
  return {};
}

bool Value::Equals(const Value& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case ValueType::kBoolean:
      return boolean_ == other.boolean_;
    case ValueType::kNumber:
      return number_ == other.number_;
    case ValueType::kString:
      return string_ == other.string_;
    case ValueType::kNodeSet:
      return nodes_ == other.nodes_;
  }
  GKX_CHECK(false);
  return false;
}

std::string Value::DebugString() const {
  switch (type_) {
    case ValueType::kBoolean:
      return std::string("boolean(") + (boolean_ ? "true" : "false") + ")";
    case ValueType::kNumber:
      return "number(" + FormatXPathNumber(number_) + ")";
    case ValueType::kString:
      return "string('" + string_ + "')";
    case ValueType::kNodeSet: {
      std::string out = "node-set{";
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(nodes_[i]);
      }
      return out + "}";
    }
  }
  GKX_CHECK(false);
  return {};
}

namespace {

bool IsOrderOp(BinaryOp op) {
  return op == BinaryOp::kLt || op == BinaryOp::kLe || op == BinaryOp::kGt ||
         op == BinaryOp::kGe;
}

/// Comparison of two non-node-set values per §3.4: booleans win, then
/// numbers, then strings; order comparisons always go through numbers.
bool CompareScalars(const xml::Document& doc, BinaryOp op, const Value& lhs,
                    const Value& rhs) {
  if (IsOrderOp(op)) {
    return CompareNumbers(op, lhs.ToNumber(doc), rhs.ToNumber(doc));
  }
  if (lhs.type() == ValueType::kBoolean || rhs.type() == ValueType::kBoolean) {
    bool cmp = lhs.ToBoolean() == rhs.ToBoolean();
    return op == BinaryOp::kEq ? cmp : !cmp;
  }
  if (lhs.type() == ValueType::kNumber || rhs.type() == ValueType::kNumber) {
    return CompareNumbers(op, lhs.ToNumber(doc), rhs.ToNumber(doc));
  }
  bool cmp = lhs.ToString(doc) == rhs.ToString(doc);
  return op == BinaryOp::kEq ? cmp : !cmp;
}

BinaryOp MirrorOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // = and != are symmetric
  }
}

/// node-set `op` scalar (existential over the node-set).
bool CompareNodeSetScalar(const xml::Document& doc, BinaryOp op,
                          const NodeSet& nodes, const Value& scalar) {
  if (scalar.type() == ValueType::kBoolean) {
    // §3.4: convert the node-set with boolean().
    bool lhs = !nodes.empty();
    bool cmp = lhs == scalar.boolean();
    if (op == BinaryOp::kEq) return cmp;
    if (op == BinaryOp::kNe) return !cmp;
    return CompareNumbers(op, lhs ? 1.0 : 0.0, scalar.ToNumber(doc));
  }
  for (xml::NodeId node : nodes) {
    std::string sv = doc.StringValue(node);
    bool match;
    if (IsOrderOp(op) || scalar.type() == ValueType::kNumber) {
      match = CompareNumbers(op, ParseXPathNumber(sv), scalar.ToNumber(doc));
    } else {
      bool eq = sv == scalar.ToString(doc);
      match = op == BinaryOp::kEq ? eq : !eq;
    }
    if (match) return true;
  }
  return false;
}

}  // namespace

bool CompareValues(const xml::Document& doc, BinaryOp op, const Value& lhs,
                   const Value& rhs) {
  GKX_CHECK(xpath::IsRelationalOp(op));
  const bool lns = lhs.is_node_set();
  const bool rns = rhs.is_node_set();
  if (lns && rns) {
    // Existential over both sides; equality on string-values, order on
    // number(string-value).
    for (xml::NodeId a : lhs.nodes()) {
      const std::string sa = doc.StringValue(a);
      const double na = ParseXPathNumber(sa);
      for (xml::NodeId b : rhs.nodes()) {
        bool match;
        if (IsOrderOp(op)) {
          match = CompareNumbers(op, na, ParseXPathNumber(doc.StringValue(b)));
        } else {
          bool eq = sa == doc.StringValue(b);
          match = op == BinaryOp::kEq ? eq : !eq;
        }
        if (match) return true;
      }
    }
    return false;
  }
  if (lns) return CompareNodeSetScalar(doc, op, lhs.nodes(), rhs);
  if (rns) return CompareNodeSetScalar(doc, MirrorOp(op), rhs.nodes(), lhs);
  return CompareScalars(doc, op, lhs, rhs);
}

double XPathRound(double value) {
  if (std::isnan(value) || std::isinf(value)) return value;
  return std::floor(value + 0.5);
}

}  // namespace gkx::eval
