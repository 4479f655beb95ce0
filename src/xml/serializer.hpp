// Document -> XML text. Inverse of ParseDocument under the conventions
// described there (extra labels emitted as a `labels="..."` attribute, direct
// text emitted before child elements).

#ifndef GKX_XML_SERIALIZER_HPP_
#define GKX_XML_SERIALIZER_HPP_

#include <string>

#include "xml/document.hpp"

namespace gkx::xml {

struct SerializeOptions {
  /// Indent per nesting level; 0 emits everything on one line.
  int indent = 2;
  /// Attribute used for extra labels; empty drops labels from the output.
  std::string labels_attribute{kLabelsAttribute};
};

/// Serializes the whole document.
std::string SerializeDocument(const Document& doc, const SerializeOptions& options = {});

/// Serializes the subtree rooted at `node`.
std::string SerializeSubtree(const Document& doc, NodeId node,
                             const SerializeOptions& options = {});

}  // namespace gkx::xml

#endif  // GKX_XML_SERIALIZER_HPP_
