#include "xml/builder.hpp"

#include <algorithm>
#include <utility>

namespace gkx::xml {

PreorderBuilder::PreorderBuilder(int32_t reserve_hint) {
  if (reserve_hint <= 0) return;
  const size_t n = static_cast<size_t>(reserve_hint);
  Document::Owned& a = doc_.owned_;
  a.parent.reserve(n);
  a.first_child.reserve(n);
  a.last_child.reserve(n);
  a.prev_sibling.reserve(n);
  a.next_sibling.reserve(n);
  a.subtree_size.reserve(n);
  a.depth.reserve(n);
  a.tag.reserve(n);
  a.text_span.reserve(n);
  a.label_span.reserve(n);
  a.attr_span.reserve(n);
}

void PreorderBuilder::StartElement(std::string_view tag) {
  FlushLabels();
  Document::Owned& a = doc_.owned_;
  const NodeId id = static_cast<NodeId>(a.parent.size());
  const NodeId parent =
      depth_ == 0 ? kNullNode : open_ids_[static_cast<size_t>(depth_ - 1)];

  a.parent.push_back(parent);
  a.first_child.push_back(kNullNode);
  a.last_child.push_back(kNullNode);
  a.prev_sibling.push_back(kNullNode);
  a.next_sibling.push_back(kNullNode);
  a.subtree_size.push_back(1);  // finalized at EndElement
  a.depth.push_back(depth_);
  a.tag.push_back(doc_.InternName(tag));
  a.text_span.push_back(PayloadSpan{});   // finalized at EndElement
  a.label_span.push_back(PayloadSpan{});  // finalized at FlushLabels
  a.attr_span.push_back(
      PayloadSpan{static_cast<uint32_t>(a.attr_pool.size()), 0});

  if (parent != kNullNode) {
    const size_t p = static_cast<size_t>(parent);
    if (a.first_child[p] == kNullNode) {
      a.first_child[p] = id;
    } else {
      a.next_sibling[static_cast<size_t>(a.last_child[p])] = id;
      a.prev_sibling[static_cast<size_t>(id)] = a.last_child[p];
    }
    a.last_child[p] = id;
  }
  labels_node_ = id;

  if (open_ids_.size() == static_cast<size_t>(depth_)) {
    open_ids_.push_back(id);
    open_texts_.emplace_back();
  } else {
    open_ids_[static_cast<size_t>(depth_)] = id;
    open_texts_[static_cast<size_t>(depth_)].clear();
  }
  ++depth_;
}

void PreorderBuilder::AddAttribute(std::string_view name,
                                   std::string_view value) {
  Document::Owned& a = doc_.owned_;
  a.attr_pool.push_back(doc_.MakeAttrEntry(name, value));
  ++a.attr_span.back().length;
}

void PreorderBuilder::AddLabel(std::string_view label) {
  pending_labels_.push_back(doc_.InternName(label));
}

void PreorderBuilder::AppendText(std::string_view text) {
  FlushLabels();
  open_texts_[static_cast<size_t>(depth_ - 1)] += text;
}

void PreorderBuilder::EndElement() {
  FlushLabels();
  Document::Owned& a = doc_.owned_;
  --depth_;
  const NodeId id = open_ids_[static_cast<size_t>(depth_)];
  a.subtree_size[static_cast<size_t>(id)] =
      static_cast<int32_t>(a.parent.size()) - id;
  a.text_span[static_cast<size_t>(id)] =
      doc_.AppendHeapBytes(open_texts_[static_cast<size_t>(depth_)]);
}

Document PreorderBuilder::Finish() && {
  GKX_CHECK_EQ(depth_, 0);
  doc_.SealViews();
  return std::move(doc_);
}

/// Interns are append-only, so a node's label set is sorted/deduped once,
/// when the next event proves no more labels can arrive for it.
void PreorderBuilder::FlushLabels() {
  if (labels_node_ == kNullNode) return;
  const NodeId id = labels_node_;
  labels_node_ = kNullNode;
  if (pending_labels_.empty()) return;
  Document::Owned& a = doc_.owned_;
  const NameId tag = a.tag[static_cast<size_t>(id)];
  std::sort(pending_labels_.begin(), pending_labels_.end());
  pending_labels_.erase(
      std::unique(pending_labels_.begin(), pending_labels_.end()),
      pending_labels_.end());
  const uint32_t start = static_cast<uint32_t>(a.label_pool.size());
  for (NameId label : pending_labels_) {
    if (label != tag) a.label_pool.push_back(label);  // tag/labels disjoint
  }
  a.label_span[static_cast<size_t>(id)] = PayloadSpan{
      start, static_cast<uint32_t>(a.label_pool.size()) - start};
  pending_labels_.clear();
}

TreeBuilder::TreeBuilder(std::string_view root_tag) {
  nodes_.push_back(PendingNode{std::string(root_tag), {}, {}, {}, {}});
}

TreeBuilder::PendingNode& TreeBuilder::At(BuildNodeId id) {
  GKX_CHECK(id >= 0 && id < size());
  return nodes_[static_cast<size_t>(id)];
}

BuildNodeId TreeBuilder::AddChild(BuildNodeId parent, std::string_view tag) {
  BuildNodeId id = size();
  At(parent).children.push_back(id);
  nodes_.push_back(PendingNode{std::string(tag), {}, {}, {}, {}});
  return id;
}

BuildNodeId TreeBuilder::AddChain(BuildNodeId top, std::string_view tag,
                                  int32_t length) {
  GKX_CHECK_GE(length, 1);
  BuildNodeId current = top;
  for (int32_t i = 0; i < length; ++i) current = AddChild(current, tag);
  return current;
}

void TreeBuilder::AddLabel(BuildNodeId node, std::string_view label) {
  auto& labels = At(node).labels;
  if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
    labels.emplace_back(label);
  }
}

void TreeBuilder::SetText(BuildNodeId node, std::string_view text) {
  At(node).text = std::string(text);
}

void TreeBuilder::AppendText(BuildNodeId node, std::string_view text) {
  At(node).text += text;
}

void TreeBuilder::AddAttribute(BuildNodeId node, std::string_view name,
                               std::string_view value) {
  At(node).attributes.push_back(Attribute{std::string(name), std::string(value)});
}

Document TreeBuilder::Build() && {
  PreorderBuilder out(size());
  // Iterative preorder walk: documents can be deep chains (the reductions
  // build Θ(n)-deep spines), so no recursion. A frame is an open node and
  // the index of its next child to replay.
  struct Frame {
    BuildNodeId node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  auto open = [&](BuildNodeId id) {
    const PendingNode& pending = nodes_[static_cast<size_t>(id)];
    out.StartElement(pending.tag);
    for (const std::string& label : pending.labels) out.AddLabel(label);
    for (const Attribute& attr : pending.attributes) {
      out.AddAttribute(attr.name, attr.value);
    }
    out.AppendText(pending.text);
    stack.push_back(Frame{id, 0});
  };
  open(root());
  while (!stack.empty()) {
    Frame& top = stack.back();
    const std::vector<BuildNodeId>& children =
        nodes_[static_cast<size_t>(top.node)].children;
    if (top.next_child == children.size()) {
      out.EndElement();
      stack.pop_back();
      continue;
    }
    const BuildNodeId child = children[top.next_child++];
    open(child);  // may reallocate the stack: `top` is not used after this
  }
  return std::move(out).Finish();
}

}  // namespace gkx::xml
