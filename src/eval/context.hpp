// The XPath evaluation context: a ⟨node, position, size⟩ triple (§2.2 of the
// paper). position/size are 1-based; the initial context is
// ⟨root, 1, 1⟩.

#ifndef GKX_EVAL_CONTEXT_HPP_
#define GKX_EVAL_CONTEXT_HPP_

#include <cstdint>

#include "xml/document.hpp"

namespace gkx::eval {

struct Context {
  xml::NodeId node = 0;
  int64_t position = 1;
  int64_t size = 1;

  bool operator==(const Context& other) const {
    return node == other.node && position == other.position && size == other.size;
  }
};

/// Initial context for a document (⟨root, 1, 1⟩).
inline Context RootContext(const xml::Document& doc) {
  return Context{doc.root(), 1, 1};
}

}  // namespace gkx::eval

#endif  // GKX_EVAL_CONTEXT_HPP_
