// Node-set representations: the public NodeSet (sorted vector in document
// order — XPath node-sets are duplicate-free and delivered in document
// order) and NodeBitset, the dense set the linear-time Core XPath evaluator
// sweeps over.

#ifndef GKX_EVAL_NODE_SET_HPP_
#define GKX_EVAL_NODE_SET_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/check.hpp"
#include "xml/document.hpp"

namespace gkx::eval {

/// Sorted (document order), duplicate-free set of nodes.
using NodeSet = std::vector<xml::NodeId>;

/// Sorts and removes duplicates in place. A set that is already strictly
/// increasing (one origin's forward-axis output, a walk in document order)
/// costs one scan and is left as it is.
inline void SortUnique(NodeSet* set) {
  if (std::adjacent_find(set->begin(), set->end(),
                         std::greater_equal<xml::NodeId>()) == set->end()) {
    return;
  }
  std::sort(set->begin(), set->end());
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

/// Binary-search membership test (set must be sorted).
inline bool SetContains(const NodeSet& set, xml::NodeId node) {
  return std::binary_search(set.begin(), set.end(), node);
}

/// Merges two sorted sets.
inline NodeSet UnionSets(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Fixed-universe bitset over node ids [0, size).
class NodeBitset {
 public:
  explicit NodeBitset(int32_t universe = 0) { Resize(universe); }

  void Resize(int32_t universe) {
    GKX_CHECK_GE(universe, 0);
    universe_ = universe;
    words_.assign(static_cast<size_t>((universe + 63) / 64), 0);
  }

  int32_t universe() const { return universe_; }

  void Set(xml::NodeId node) {
    GKX_CHECK(node >= 0 && node < universe_);
    words_[static_cast<size_t>(node >> 6)] |= uint64_t{1} << (node & 63);
  }

  bool Test(xml::NodeId node) const {
    GKX_CHECK(node >= 0 && node < universe_);
    return (words_[static_cast<size_t>(node >> 6)] >> (node & 63)) & 1;
  }

  void SetAll() {
    for (auto& w : words_) w = ~uint64_t{0};
    ClearSlack();
  }

  /// Sets every bit in [lo, hi) word-at-a-time.
  void SetRange(int32_t lo, int32_t hi) {
    GKX_CHECK(0 <= lo && lo <= hi && hi <= universe_);
    if (lo == hi) return;
    const size_t first = static_cast<size_t>(lo >> 6);
    const size_t last = static_cast<size_t>((hi - 1) >> 6);
    const uint64_t head = ~uint64_t{0} << (lo & 63);
    const uint64_t tail = ~uint64_t{0} >> (63 - ((hi - 1) & 63));
    if (first == last) {
      words_[first] |= head & tail;
      return;
    }
    words_[first] |= head;
    for (size_t w = first + 1; w < last; ++w) words_[w] = ~uint64_t{0};
    words_[last] |= tail;
  }

  /// Raw word storage (64 node bits per word, little-endian bit order), for
  /// sweeps that intersect or walk sets word-at-a-time.
  size_t word_count() const { return words_.size(); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  void Clear() {
    for (auto& w : words_) w = 0;
  }

  NodeBitset& operator&=(const NodeBitset& other) {
    GKX_CHECK_EQ(universe_, other.universe_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  NodeBitset& operator|=(const NodeBitset& other) {
    GKX_CHECK_EQ(universe_, other.universe_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  /// this := this & ~other.
  NodeBitset& AndNot(const NodeBitset& other) {
    GKX_CHECK_EQ(universe_, other.universe_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
    return *this;
  }

  void Complement() {
    for (auto& w : words_) w = ~w;
    ClearSlack();
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  int32_t Count() const {
    int32_t count = 0;
    for (uint64_t w : words_) count += static_cast<int32_t>(__builtin_popcountll(w));
    return count;
  }

  /// All members in ascending (document) order.
  NodeSet ToNodeSet() const {
    NodeSet out;
    out.reserve(static_cast<size_t>(Count()));
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        int bit = __builtin_ctzll(w);
        out.push_back(static_cast<xml::NodeId>(wi * 64 + static_cast<size_t>(bit)));
        w &= w - 1;
      }
    }
    return out;
  }

  static NodeBitset FromNodeSet(const NodeSet& set, int32_t universe) {
    NodeBitset out(universe);
    for (xml::NodeId v : set) out.Set(v);
    return out;
  }

 private:
  void ClearSlack() {
    const int32_t slack = universe_ & 63;
    if (slack != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << slack) - 1;
    }
  }

  int32_t universe_ = 0;
  std::vector<uint64_t> words_;
};

/// Calls fn(v) for every member of `set`, in document order.
template <typename Fn>
void ForEachMember(const NodeBitset& set, Fn&& fn) {
  const uint64_t* words = set.words();
  for (size_t wi = 0; wi < set.word_count(); ++wi) {
    for (uint64_t w = words[wi]; w != 0; w &= w - 1) {
      fn(static_cast<xml::NodeId>(wi * 64 +
                                  static_cast<size_t>(__builtin_ctzll(w))));
    }
  }
}

}  // namespace gkx::eval

#endif  // GKX_EVAL_NODE_SET_HPP_
