// Document construction. Every node of every built Document is appended by
// one writer, PreorderBuilder, which takes the tree as nested element
// events in document order — the order the arena stores nodes in — and
// writes the columns as it goes. ParseDocument drives it straight from the
// XML text (xml/parser_core.hpp). TreeBuilder accepts nodes in any order
// (children appended to any existing node) for the workload generators,
// every hardness reduction and the reference edit, and replays its pending
// tree into a PreorderBuilder at Build().

#ifndef GKX_XML_BUILDER_HPP_
#define GKX_XML_BUILDER_HPP_

#include <string>
#include <string_view>
#include <vector>

#include "xml/document.hpp"

namespace gkx::xml {

/// The arena writer (friend of Document). Events must nest like elements:
/// StartElement opens the root, or a last child of the innermost open
/// element, and EndElement closes it. An element's AddAttribute and
/// AddLabel calls come before its first child, text or EndElement.
///
/// A node's column entries are appended when it opens and its links wired
/// at once; its labels are sorted when its next event proves no more can
/// come; its subtree size and text are set when it closes. So a node's
/// attribute bytes precede its text bytes in the heap, and its text follows
/// its descendants' text.
class PreorderBuilder {
 public:
  /// Reserves the node columns for `reserve_hint` nodes (0: none).
  explicit PreorderBuilder(int32_t reserve_hint);

  void StartElement(std::string_view tag);
  void AddAttribute(std::string_view name, std::string_view value);
  /// An extra label (Remark 3.1); duplicates and the tag itself are dropped.
  void AddLabel(std::string_view label);
  /// Appends to the innermost open element's direct text.
  void AppendText(std::string_view text);
  void EndElement();

  /// The finished Document. Every opened element must have been closed.
  Document Finish() &&;

 private:
  void FlushLabels();

  Document doc_;
  std::vector<NodeId> open_ids_;
  std::vector<std::string> open_texts_;  // reused across siblings per depth
  std::vector<NameId> pending_labels_;
  NodeId labels_node_ = kNullNode;
  int32_t depth_ = 0;
};

/// Builder-local node handle (NOT a Document NodeId; preorder ids are
/// assigned at Build() time).
using BuildNodeId = int32_t;

/// Builds Documents programmatically. Typical use:
///   TreeBuilder b("root");
///   BuildNodeId a = b.AddChild(b.root(), "a");
///   b.AddLabel(a, "G");
///   Document doc = std::move(b).Build();
class TreeBuilder {
 public:
  /// Starts a document whose root element has the given tag.
  explicit TreeBuilder(std::string_view root_tag);

  /// Handle of the root element.
  BuildNodeId root() const { return 0; }

  /// Appends a new last child with the given tag; returns its handle.
  BuildNodeId AddChild(BuildNodeId parent, std::string_view tag);

  /// Appends a chain child/grandchild/... of `length` nodes all tagged `tag`
  /// below `top`; returns the deepest node. Requires length >= 1.
  BuildNodeId AddChain(BuildNodeId top, std::string_view tag, int32_t length);

  /// Adds an extra label (Remark 3.1 multi-labels). Duplicates are ignored.
  void AddLabel(BuildNodeId node, std::string_view label);

  /// Sets the direct text content.
  void SetText(BuildNodeId node, std::string_view text);

  /// Appends to the direct text content.
  void AppendText(BuildNodeId node, std::string_view text);

  /// Appends an attribute.
  void AddAttribute(BuildNodeId node, std::string_view name, std::string_view value);

  /// Number of nodes added so far.
  int32_t size() const { return static_cast<int32_t>(nodes_.size()); }

  /// Replays the tree into a PreorderBuilder. The builder is consumed.
  Document Build() &&;

 private:
  struct PendingNode {
    std::string tag;
    std::vector<std::string> labels;
    std::vector<Attribute> attributes;
    std::string text;
    std::vector<BuildNodeId> children;
  };

  PendingNode& At(BuildNodeId id);

  std::vector<PendingNode> nodes_;
};

}  // namespace gkx::xml

#endif  // GKX_XML_BUILDER_HPP_
