// A per-document acceleration side-structure. Document is immutable and
// knows nothing about query workloads; DocumentIndex is built next to it,
// never during a parse: the service's DocumentStore builds it on the first
// indexed query against a revision, edited revisions included.
// It maps each interned name to the preorder-sorted list of nodes carrying
// it (as tag or extra label, Remark 3.1). Because NodeId is preorder rank
// and a subtree is the contiguous interval [v, v + subtree_size),
// "descendants of v named t" is a binary-search range in the name's posting
// list — O(log |D| + answer) instead of an O(subtree) walk. The service's
// indexed PF fast path (service/indexed_path.hpp) is built on exactly this.

#ifndef GKX_XML_INDEX_HPP_
#define GKX_XML_INDEX_HPP_

#include <cstdint>
#include <string_view>
#include <vector>

#include "xml/document.hpp"

namespace gkx::xml {

class DocumentIndex {
 public:
  /// Builds the full index in one O(|D| + Σ postings) pass. The document
  /// must outlive the index.
  explicit DocumentIndex(const Document& doc);

  const Document& doc() const { return *doc_; }

  /// Preorder-sorted ids of nodes whose tag or extra label is `name`.
  /// Empty list for kNoName, out-of-pool names and pool names no node
  /// carries any more.
  const std::vector<NodeId>& NodesWithName(NameId name) const;

  /// Convenience: posting list by name text.
  const std::vector<NodeId>& NodesWithName(std::string_view name) const {
    return NodesWithName(doc_->FindName(name));
  }

  /// Appends (in preorder) the nodes named `name` inside the half-open
  /// preorder interval [first, limit) to *out.
  void AppendNamedInRange(NameId name, NodeId first, NodeId limit,
                          std::vector<NodeId>* out) const;

  /// Total name-posting entries (for stats / memory accounting).
  int64_t posting_count() const { return posting_count_; }

 private:
  const Document* doc_;
  std::vector<std::vector<NodeId>> by_name_;  // indexed by NameId
  int64_t posting_count_ = 0;
};

}  // namespace gkx::xml

#endif  // GKX_XML_INDEX_HPP_
