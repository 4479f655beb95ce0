#include "xml/index.hpp"

#include <algorithm>

namespace gkx::xml {

namespace {
const std::vector<NodeId>& EmptyPostings() {
  static const std::vector<NodeId> kEmpty;
  return kEmpty;
}
}  // namespace

DocumentIndex::DocumentIndex(const Document& doc) : doc_(&doc) {
  // One preorder pass; node ids ascend, so each posting list is born sorted.
  NameId max_name = kNoName;
  for (NodeId v = 0; v < doc.size(); ++v) {
    max_name = std::max(max_name, doc.tag(v));
    for (NameId label : doc.labels(v)) max_name = std::max(max_name, label);
  }
  by_name_.resize(static_cast<size_t>(max_name + 1));
  for (NodeId v = 0; v < doc.size(); ++v) {
    by_name_[static_cast<size_t>(doc.tag(v))].push_back(v);
    ++posting_count_;
    for (NameId label : doc.labels(v)) {
      by_name_[static_cast<size_t>(label)].push_back(v);
      ++posting_count_;
    }
  }
}

const std::vector<NodeId>& DocumentIndex::NodesWithName(NameId name) const {
  if (name < 0 || name >= static_cast<NameId>(by_name_.size())) {
    return EmptyPostings();
  }
  return by_name_[static_cast<size_t>(name)];
}

void DocumentIndex::AppendNamedInRange(NameId name, NodeId first, NodeId limit,
                                       std::vector<NodeId>* out) const {
  const std::vector<NodeId>& postings = NodesWithName(name);
  auto lo = std::lower_bound(postings.begin(), postings.end(), first);
  auto hi = std::lower_bound(lo, postings.end(), limit);
  out->insert(out->end(), lo, hi);
}

}  // namespace gkx::xml
