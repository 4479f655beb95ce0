// Subtree patches over the preorder tree. Because NodeId is preorder rank,
// a subtree is the contiguous id interval [v, v + subtree_size(v)) — so an
// edit that replaces, removes, or inserts one subtree touches exactly one
// interval, every node before it keeps its id, and every node after it
// shifts by a constant. ApplyEdit exploits that: it splices the edit into
// an existing Document in one O(|D|) pass over the node array (straight
// copies with integer link fix-ups — no re-parse, no TreeBuilder, no name
// re-interning for the untouched part) and reports a DocumentDelta
// describing precisely what the edit could have changed. The delta is what
// the rest of the pipeline keys on: DocumentStore::Update forwards it to
// listeners, and the mview layer invalidates per region×name instead of per
// document (see plan/footprint.hpp for the sharpened soundness argument).
//
// NameId stability: the edited document's intern pool is the old pool plus
// any names the spliced-in subtree introduces, in that order. NameIds of
// surviving nodes are therefore unchanged, so node-set answers and delta
// name ids carry over between revisions. The price is that a pool entry may
// outlive the last node carrying it (Document::InternedNames becomes a
// superset of the present names after edits); a DocumentIndex gives such a
// name an empty posting list, and every consumer of the pool-based name set
// tolerates supersets (they only ever over-invalidate).

#ifndef GKX_XML_EDIT_HPP_
#define GKX_XML_EDIT_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.hpp"
#include "xml/document.hpp"

namespace gkx::xml {

/// One subtree-granular mutation of a Document.
struct SubtreeEdit {
  enum class Kind {
    kReplaceSubtree,  // splice `subtree` in place of the subtree at `target`
    kRemoveSubtree,   // delete the subtree at `target` (target != root)
    kInsertSubtree,   // graft `subtree` as the position-th child of `target`
    kSetText,         // replace the direct text of `target` (ids stable)
    kRelabel,         // replace the tag of `target` with `label` (ids stable)
  };

  Kind kind = Kind::kSetText;
  /// The subtree root for replace/remove, the node for settext/relabel, the
  /// PARENT under which to graft for insert.
  NodeId target = 0;
  /// Insert only: child index in [0, ChildCount(target)]; ChildCount appends.
  int32_t position = 0;
  /// Replace/insert: the spliced-in content (a non-empty Document whose root
  /// becomes the new subtree root).
  Document subtree;
  /// SetText: the new direct text content.
  std::string text;
  /// Relabel: the new tag.
  std::string label;
};

/// What an applied edit may have changed, in the coordinates both revisions
/// share: the region is the half-open preorder interval starting at `begin`
/// covering `old_count` nodes of the old document and `new_count` nodes of
/// the new one. Everything before `begin` is bitwise-identical in both;
/// everything at or after `begin + old_count` reappears at its old id plus
/// `shift()`.
struct DocumentDelta {
  NodeId begin = 0;
  int32_t old_count = 0;
  int32_t new_count = 0;
  /// True when the edit changed no tree structure (kSetText / kRelabel):
  /// every NodeId denotes the same structural node in both revisions, so
  /// node-set answers and delivered subscription states carry over verbatim.
  bool ids_stable = true;
  /// True when the region's text content (concatenated in document order)
  /// differs between the revisions — the only way any node's XPath
  /// string-value can have changed.
  bool content_changed = false;
  /// Sorted, duplicate-free tag/label names carried by nodes of the old
  /// region and of the new region. Empty on both sides for pure text edits:
  /// a SetText changes no name, so name-only footprints survive it.
  std::vector<std::string> old_names;
  std::vector<std::string> new_names;

  /// Id displacement of every node at or after the old region's end.
  int32_t shift() const { return new_count - old_count; }
  bool structure_changed() const { return !ids_stable; }
  /// True when any node's name set changed (relabel, or any spliced names).
  bool names_changed() const {
    return !old_names.empty() || !new_names.empty();
  }
  /// Sorted union of old_names and new_names — the delta-local analogue of
  /// the whole-document changed-name set.
  std::vector<std::string> ChangedNames() const;
  /// "[begin,+old)->+new names={...}" for logs and test diagnostics.
  std::string ToString() const;
};

/// Applies `edit` to `doc`, returning the edited document and (when `delta`
/// is non-null) the delta. The input document is untouched; surviving nodes
/// keep their NameIds (see the header comment). Fails on out-of-range
/// targets, removing the root, inserting at an out-of-range position, or an
/// empty replacement subtree.
Result<Document> ApplyEdit(const Document& doc, const SubtreeEdit& edit,
                           DocumentDelta* delta = nullptr);

}  // namespace gkx::xml

#endif  // GKX_XML_EDIT_HPP_
