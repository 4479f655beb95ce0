// The XML document substrate: an immutable tree of element nodes stored in
// preorder. This is exactly the data model the paper works over ("dom" is the
// set of element nodes, document order is preorder, and — per Remark 3.1 —
// a node may carry several labels). NodeId equals preorder rank, so
//   * descendants of v are the contiguous id range (v, v + subtree_size(v)),
//   * following(v) is [v + subtree_size(v), size()),
//   * document order is integer order on ids.
//
// Memory layout: a structure-of-arrays arena. The tree lives in parallel
// id-indexed columns —
//   parent | first_child | last_child | prev_sibling | next_sibling
//   subtree_size | depth | tag
// — so the linear-time sweeps (eval/core_linear_evaluator.cpp, the service's
// indexed PF path) stream exactly the 4-byte column they need instead of
// dragging a fat Node struct (labels vector, attributes vector, text string)
// through every cache line. The sparse payloads live in side tables: per-node
// POD spans (text_span / label_span / attr_span) into pooled arrays (a NameId
// label pool, an AttrEntry pool, one shared char heap), so a payload-free
// node costs zero heap objects and the columns are trivially copyable.
//
// Because every column and pool is a flat POD array addressed by offsets,
// the whole arena has a relocatable on-disk form: xml/snapshot.hpp saves it
// as one blob and memory-maps it straight back into serving with no fix-up
// pass — a mapped Document's views point into the mapping (kept alive by a
// shared handle) instead of owned vectors. Mapped documents are immutable;
// copying one (e.g. to edit it) materializes owned storage.

#ifndef GKX_XML_DOCUMENT_HPP_
#define GKX_XML_DOCUMENT_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/check.hpp"
#include "base/identity.hpp"

namespace gkx::xml {

/// Preorder rank of a node within its Document.
using NodeId = int32_t;

/// Sentinel for "no node" (absent parent/sibling/child).
inline constexpr NodeId kNullNode = -1;

/// Interned name id (tags and extra labels share one pool per document).
using NameId = int32_t;

/// Sentinel for a name that is not interned in the document.
inline constexpr NameId kNoName = -1;

/// An XML attribute as builder/test input (name is not interned; attributes
/// are payload, not navigation — the paper's fragments have no attribute
/// axis). Inside a Document attributes are stored as heap spans; this owning
/// form is what TreeBuilder accepts.
struct Attribute {
  std::string name;
  std::string value;
};

/// A (offset, length) window into one of the arena's pooled arrays. POD on
/// purpose: span columns are bulk-copied and memory-mapped verbatim.
struct PayloadSpan {
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// One pooled attribute: name and value as windows into the char heap.
struct AttrEntry {
  uint32_t name_offset = 0;
  uint32_t name_length = 0;
  uint32_t value_offset = 0;
  uint32_t value_length = 0;
};

/// Non-owning view of one attribute, resolved against the heap.
struct AttributeRef {
  std::string_view name;
  std::string_view value;
};

/// Summary statistics used by experiment tables.
struct DocumentStats {
  int64_t node_count = 0;
  int32_t max_depth = 0;
  int32_t max_fanout = 0;
  int64_t label_count = 0;  // extra labels across all nodes
};

namespace internal {
class MappedSnapshot;  // snapshot.cpp: RAII mmap handle
}  // namespace internal

/// An immutable preorder element tree. Construct via TreeBuilder,
/// ParseDocument / ParseDocumentStream, or MapSnapshot; Documents are movable
/// and cheaply shareable by const ref.
class Document {
 public:
  Document() = default;
  /// Deep copy: materializes owned columns even when `other` is mapped.
  Document(const Document& other) { CopyFrom(other); }
  Document& operator=(const Document& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Document(Document&& other) noexcept
      : identity_(std::move(other.identity_)),
        owned_(std::move(other.owned_)),
        v_(other.v_),
        mapping_(std::move(other.mapping_)),
        names_(std::move(other.names_)),
        name_ids_(std::move(other.name_ids_)) {
    other.v_ = Views{};
  }
  Document& operator=(Document&& other) noexcept {
    if (this != &other) {
      identity_ = std::move(other.identity_);
      owned_ = std::move(other.owned_);
      v_ = other.v_;
      mapping_ = std::move(other.mapping_);
      names_ = std::move(other.names_);
      name_ids_ = std::move(other.name_ids_);
      other.v_ = Views{};
    }
    return *this;
  }

  /// Process-unique bind identity (base/identity.hpp). Evaluators that keep
  /// per-document caches across Bind calls compare (address, serial) — a
  /// match guarantees this is the exact object the cache was built against,
  /// even if the allocator recycled a freed document's address.
  uint64_t serial() const { return identity_.value(); }

  /// Root node id (always 0 for a non-empty document).
  NodeId root() const { return 0; }

  /// Number of element nodes.
  int32_t size() const { return v_.size; }

  bool empty() const { return v_.size == 0; }

  // ------------------------------------------------------------- columns
  // Per-node column accessors (bounds-checked; the dense sweeps use the raw
  // *_data() pointers below and supply their own range proofs).

  NodeId parent(NodeId id) const { return v_.parent[Checked(id)]; }
  NodeId first_child(NodeId id) const { return v_.first_child[Checked(id)]; }
  NodeId last_child(NodeId id) const { return v_.last_child[Checked(id)]; }
  NodeId prev_sibling(NodeId id) const { return v_.prev_sibling[Checked(id)]; }
  NodeId next_sibling(NodeId id) const { return v_.next_sibling[Checked(id)]; }
  int32_t subtree_size(NodeId id) const { return v_.subtree_size[Checked(id)]; }
  int32_t depth(NodeId id) const { return v_.depth[Checked(id)]; }
  NameId tag(NodeId id) const { return v_.tag[Checked(id)]; }

  /// Raw column pointers, each `size()` entries. The axis-image sweeps read
  /// these directly, so a sweep streams one contiguous 4-byte-per-node
  /// stripe.
  const NodeId* parent_data() const { return v_.parent; }
  const NodeId* first_child_data() const { return v_.first_child; }
  const NodeId* last_child_data() const { return v_.last_child; }
  const NodeId* prev_sibling_data() const { return v_.prev_sibling; }
  const NodeId* next_sibling_data() const { return v_.next_sibling; }
  const int32_t* subtree_size_data() const { return v_.subtree_size; }
  const int32_t* depth_data() const { return v_.depth; }
  const NameId* tag_data() const { return v_.tag; }

  // ------------------------------------------------------------ payloads

  /// Extra labels (Remark 3.1), sorted ascending, disjoint from tag(id).
  std::span<const NameId> labels(NodeId id) const {
    const PayloadSpan s = v_.label_span[Checked(id)];
    return {v_.label_pool + s.offset, s.length};
  }

  /// Direct text content (all text children concatenated). Views into the
  /// arena heap; valid as long as the Document (or its mapping) lives.
  std::string_view text(NodeId id) const {
    const PayloadSpan s = v_.text_span[Checked(id)];
    return {v_.heap + s.offset, s.length};
  }

  int32_t attribute_count(NodeId id) const {
    return static_cast<int32_t>(v_.attr_span[Checked(id)].length);
  }

  AttributeRef attribute(NodeId id, int32_t index) const {
    const PayloadSpan s = v_.attr_span[Checked(id)];
    GKX_CHECK(index >= 0 && static_cast<uint32_t>(index) < s.length);
    const AttrEntry& e = v_.attr_pool[s.offset + static_cast<uint32_t>(index)];
    return {{v_.heap + e.name_offset, e.name_length},
            {v_.heap + e.value_offset, e.value_length}};
  }

  // ------------------------------------------------------------- queries

  /// Tag name of a node.
  std::string_view TagName(NodeId id) const { return NameText(tag(id)); }

  /// Text of an interned name id.
  std::string_view NameText(NameId name) const {
    GKX_CHECK(name >= 0 && name < static_cast<NameId>(names_.size()));
    return names_[static_cast<size_t>(name)];
  }

  /// Id of an interned name, or kNoName if this document never uses it.
  NameId FindName(std::string_view name) const;

  /// The interned name pool, indexed by NameId. TreeBuilder interns a name
  /// only when a node carries it; ApplyEdit (xml/edit.hpp) keeps the old
  /// pool so NameIds stay stable across edits, which can leave entries no
  /// node carries any more. The pool is therefore a cheap SUPERSET of the
  /// present names (exact for freshly built documents) — good enough for
  /// the mview changed-name fallback, which only ever over-invalidates;
  /// DocumentIndex::PresentNames is the exact set.
  const std::vector<std::string>& InternedNames() const { return names_; }

  /// True if the node's tag or any extra label equals `name`.
  bool NodeHasName(NodeId id, NameId name) const;

  /// Convenience: NodeHasName by string (kNoName-safe).
  bool NodeHasName(NodeId id, std::string_view name) const {
    NameId n = FindName(name);
    return n != kNoName && NodeHasName(id, n);
  }

  /// Attribute value or empty view if absent.
  std::string_view AttributeValue(NodeId id, std::string_view name) const;

  /// True if `ancestor` is an ancestor of `v` or v itself.
  bool IsAncestorOrSelf(NodeId ancestor, NodeId v) const {
    return ancestor <= v && v < ancestor + subtree_size(ancestor);
  }

  /// Children of a node in document order.
  std::vector<NodeId> Children(NodeId id) const;

  /// Number of children.
  int32_t ChildCount(NodeId id) const;

  /// XPath string-value: the node's direct text followed by the text of its
  /// descendants in document order. (Text is attached to elements in this
  /// model; see DESIGN.md for the approximation note.)
  std::string StringValue(NodeId id) const;

  DocumentStats Stats() const;

  /// Structural equality: same shape, tags, labels, attributes, and text.
  bool StructurallyEquals(const Document& other) const;

  // ------------------------------------------------------------ snapshots

  /// True when this document's columns view a memory-mapped snapshot
  /// (xml/snapshot.hpp) instead of owned vectors.
  bool mapped() const { return mapping_ != nullptr; }

  /// Total arena bytes (columns + pools + heap), i.e. the resident cost of
  /// the tree itself — and the payload size of a snapshot.
  int64_t ArenaBytes() const;

 private:
  friend class TreeBuilder;
  friend class EditSplicer;    // xml/edit.cpp: subtree splicing
  friend class StreamBuilder;  // xml/stream_parser.cpp: one-pass ingestion
  friend class SnapshotCodec;  // xml/snapshot.cpp: save/map

  /// Owned column storage. Empty (all vectors) for mapped documents.
  struct Owned {
    std::vector<NodeId> parent, first_child, last_child, prev_sibling,
        next_sibling;
    std::vector<int32_t> subtree_size, depth;
    std::vector<NameId> tag;
    std::vector<PayloadSpan> text_span, label_span, attr_span;
    std::vector<NameId> label_pool;
    std::vector<AttrEntry> attr_pool;
    std::vector<char> heap;
  };

  /// The read surface: raw pointers into either `owned_` or the mapping.
  struct Views {
    const NodeId* parent = nullptr;
    const NodeId* first_child = nullptr;
    const NodeId* last_child = nullptr;
    const NodeId* prev_sibling = nullptr;
    const NodeId* next_sibling = nullptr;
    const int32_t* subtree_size = nullptr;
    const int32_t* depth = nullptr;
    const NameId* tag = nullptr;
    const PayloadSpan* text_span = nullptr;
    const PayloadSpan* label_span = nullptr;
    const PayloadSpan* attr_span = nullptr;
    const NameId* label_pool = nullptr;
    const AttrEntry* attr_pool = nullptr;
    const char* heap = nullptr;
    int32_t size = 0;
    size_t label_pool_size = 0;
    size_t attr_pool_size = 0;
    size_t heap_size = 0;
  };

  NodeId Checked(NodeId id) const {
    GKX_CHECK(id >= 0 && id < v_.size);
    return id;
  }

  NameId InternName(std::string_view name);

  /// Appends bytes to the owned heap, returning their span. Offsets are
  /// uint32, so one arena holds at most 4 GiB of payload bytes (checked).
  PayloadSpan AppendHeapBytes(std::string_view bytes);

  /// Appends an attribute's name and value to the owned heap.
  AttrEntry MakeAttrEntry(std::string_view name, std::string_view value);

  /// Points the views at `owned_` (after any mutation of owned storage).
  void SealViews();

  /// Deep copy through `other`'s views into owned storage.
  void CopyFrom(const Document& other);

  IdentitySerial identity_;
  Owned owned_;
  Views v_;
  std::shared_ptr<internal::MappedSnapshot> mapping_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, NameId> name_ids_;
};

}  // namespace gkx::xml

#endif  // GKX_XML_DOCUMENT_HPP_
