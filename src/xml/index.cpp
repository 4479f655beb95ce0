#include "xml/index.hpp"

#include <algorithm>
#include <utility>

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
  for (NameId name = 0; name < static_cast<NameId>(by_name_.size()); ++name) {
    if (!by_name_[static_cast<size_t>(name)].empty()) {
      name_set_.emplace_back(doc.NameText(name));
    }
  }
  std::sort(name_set_.begin(), name_set_.end());
}

DocumentIndex::DocumentIndex(const Document& doc,
                             const DocumentIndex& old_index,
                             const DocumentDelta& delta)
    : doc_(&doc) {
  const NodeId begin = delta.begin;
  const NodeId old_end = begin + delta.old_count;
  const NodeId new_end = begin + delta.new_count;
  const int32_t shift = delta.shift();

  // The new region's postings, collected in one walk over just the edited
  // interval (ascending ids keep each list born sorted).
  const size_t pool = doc.InternedNames().size();
  std::vector<std::vector<NodeId>> region_by_name(pool);
  for (NodeId v = begin; v < new_end; ++v) {
    region_by_name[static_cast<size_t>(doc.tag(v))].push_back(v);
    for (NameId label : doc.labels(v)) {
      region_by_name[static_cast<size_t>(label)].push_back(v);
    }
  }

  // Per-list splice: prefix verbatim ++ region ++ suffix shifted. NameIds
  // are stable across ApplyEdit, so old lists line up with new names.
  by_name_.resize(pool);
  for (size_t name = 0; name < pool; ++name) {
    const std::vector<NodeId>& old_postings =
        name < old_index.by_name_.size() ? old_index.by_name_[name]
                                         : EmptyPostings();
    const std::vector<NodeId>& region = region_by_name[name];
    std::vector<NodeId>& out = by_name_[name];
    auto lo = std::lower_bound(old_postings.begin(), old_postings.end(), begin);
    auto hi = std::lower_bound(lo, old_postings.end(), old_end);
    out.reserve(static_cast<size_t>(lo - old_postings.begin()) +
                region.size() + static_cast<size_t>(old_postings.end() - hi));
    out.insert(out.end(), old_postings.begin(), lo);
    out.insert(out.end(), region.begin(), region.end());
    for (auto it = hi; it != old_postings.end(); ++it) {
      out.push_back(*it + shift);
    }
    posting_count_ += static_cast<int64_t>(out.size());
  }

  for (NameId name = 0; name < static_cast<NameId>(by_name_.size()); ++name) {
    if (!by_name_[static_cast<size_t>(name)].empty()) {
      name_set_.emplace_back(doc.NameText(name));
    }
  }
  std::sort(name_set_.begin(), name_set_.end());
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
