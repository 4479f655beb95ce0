#include "xml/document.hpp"

#include <algorithm>

namespace gkx::xml {

NameId Document::FindName(std::string_view name) const {
  auto it = name_ids_.find(std::string(name));
  return it == name_ids_.end() ? kNoName : it->second;
}

NameId Document::InternName(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

PayloadSpan Document::AppendHeapBytes(std::string_view bytes) {
  GKX_CHECK(mapping_ == nullptr);
  GKX_CHECK(owned_.heap.size() + bytes.size() <= UINT32_MAX);
  const PayloadSpan span{static_cast<uint32_t>(owned_.heap.size()),
                         static_cast<uint32_t>(bytes.size())};
  owned_.heap.insert(owned_.heap.end(), bytes.begin(), bytes.end());
  return span;
}

AttrEntry Document::MakeAttrEntry(std::string_view name,
                                  std::string_view value) {
  const PayloadSpan n = AppendHeapBytes(name);
  const PayloadSpan v = AppendHeapBytes(value);
  return AttrEntry{n.offset, n.length, v.offset, v.length};
}

void Document::SealViews() {
  GKX_CHECK(mapping_ == nullptr);
  v_.parent = owned_.parent.data();
  v_.first_child = owned_.first_child.data();
  v_.last_child = owned_.last_child.data();
  v_.prev_sibling = owned_.prev_sibling.data();
  v_.next_sibling = owned_.next_sibling.data();
  v_.subtree_size = owned_.subtree_size.data();
  v_.depth = owned_.depth.data();
  v_.tag = owned_.tag.data();
  v_.text_span = owned_.text_span.data();
  v_.label_span = owned_.label_span.data();
  v_.attr_span = owned_.attr_span.data();
  v_.label_pool = owned_.label_pool.data();
  v_.attr_pool = owned_.attr_pool.data();
  v_.heap = owned_.heap.data();
  v_.size = static_cast<int32_t>(owned_.parent.size());
  v_.label_pool_size = owned_.label_pool.size();
  v_.attr_pool_size = owned_.attr_pool.size();
  v_.heap_size = owned_.heap.size();
}

void Document::CopyFrom(const Document& other) {
  // Copy through the views, not the owned vectors: this materializes owned
  // storage whether `other` is owned or mapped.
  const Views& o = other.v_;
  const size_t n = static_cast<size_t>(o.size);
  owned_.parent.assign(o.parent, o.parent + n);
  owned_.first_child.assign(o.first_child, o.first_child + n);
  owned_.last_child.assign(o.last_child, o.last_child + n);
  owned_.prev_sibling.assign(o.prev_sibling, o.prev_sibling + n);
  owned_.next_sibling.assign(o.next_sibling, o.next_sibling + n);
  owned_.subtree_size.assign(o.subtree_size, o.subtree_size + n);
  owned_.depth.assign(o.depth, o.depth + n);
  owned_.tag.assign(o.tag, o.tag + n);
  owned_.text_span.assign(o.text_span, o.text_span + n);
  owned_.label_span.assign(o.label_span, o.label_span + n);
  owned_.attr_span.assign(o.attr_span, o.attr_span + n);
  owned_.label_pool.assign(o.label_pool, o.label_pool + o.label_pool_size);
  owned_.attr_pool.assign(o.attr_pool, o.attr_pool + o.attr_pool_size);
  owned_.heap.assign(o.heap, o.heap + o.heap_size);
  names_ = other.names_;
  name_ids_ = other.name_ids_;
  mapping_.reset();
  SealViews();
}

std::string_view Document::AttributeValue(NodeId id,
                                          std::string_view name) const {
  const int32_t count = attribute_count(id);
  for (int32_t i = 0; i < count; ++i) {
    const AttributeRef attr = attribute(id, i);
    if (attr.name == name) return attr.value;
  }
  return {};
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(id); c != kNullNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

int32_t Document::ChildCount(NodeId id) const {
  int32_t count = 0;
  for (NodeId c = first_child(id); c != kNullNode; c = next_sibling(c)) {
    ++count;
  }
  return count;
}

std::string Document::StringValue(NodeId id) const {
  std::string out;
  const NodeId end = id + subtree_size(id);
  for (NodeId v = id; v < end; ++v) out += text(v);
  return out;
}

DocumentStats Document::Stats() const {
  DocumentStats stats;
  stats.node_count = size();
  for (NodeId v = 0; v < size(); ++v) {
    stats.max_depth = std::max(stats.max_depth, depth(v));
    stats.label_count += static_cast<int64_t>(labels(v).size());
    stats.max_fanout = std::max(stats.max_fanout, ChildCount(v));
  }
  return stats;
}

int64_t Document::ArenaBytes() const {
  const int64_t n = size();
  return n * static_cast<int64_t>(5 * sizeof(NodeId) + 2 * sizeof(int32_t) +
                                  sizeof(NameId) + 3 * sizeof(PayloadSpan)) +
         static_cast<int64_t>(v_.label_pool_size * sizeof(NameId)) +
         static_cast<int64_t>(v_.attr_pool_size * sizeof(AttrEntry)) +
         static_cast<int64_t>(v_.heap_size);
}

}  // namespace gkx::xml
