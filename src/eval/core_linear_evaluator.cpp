#include "eval/core_linear_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <span>
#include <utility>

#include "xpath/fragment.hpp"

namespace gkx::eval {

using xpath::Axis;
using xpath::BinaryOp;
using xpath::Expr;
using xpath::Function;
using xpath::PathExpr;
using xpath::Step;

namespace {

/// Calls fn(v) for every member of `set`, in document order.
template <typename Fn>
void ForEachMember(const NodeBitset& set, Fn&& fn) {
  const uint64_t* words = set.words();
  for (size_t wi = 0; wi < set.word_count(); ++wi) {
    uint64_t w = words[wi];
    while (w != 0) {
      const int bit = __builtin_ctzll(w);
      fn(static_cast<xml::NodeId>(wi * 64 + static_cast<size_t>(bit)));
      w &= w - 1;
    }
  }
}

/// Member-count selector for the axes that keep two forms (child and
/// ancestor*). A dense pass streams one column, O(|D|) whatever the input;
/// a member walk costs O(|frontier| + output), but each member pays
/// pointer chases worth several nodes of a pass. On cold 1,000–3,000-node
/// documents the walk wins below about 5% members for child and 8% for
/// ancestor*. The cut sits at 1/8; the inputs the served pool produces
/// mostly lie far from it, below 1% or at 20% and over.
bool UseSparse(const NodeBitset& input, int32_t universe) {
  return input.Count() * 8 < universe;
}

/// Last member of `set` (one backward word scan), or -1 when it is empty.
int32_t LastMember(const NodeBitset& set) {
  const uint64_t* words = set.words();
  for (size_t wi = set.word_count(); wi-- > 0;) {
    if (words[wi] != 0) {
      const int top = 63 - __builtin_clzll(words[wi]);
      return static_cast<int32_t>(wi * 64) + top;
    }
  }
  return -1;
}

/// Sets bit v of `words` when column[v] == key, for v in [0, n). Each full
/// word compares its 64 entries into a byte buffer, a loop compilers
/// vectorize, and folds every 8 bytes of 0/1 into 8 bits with one multiply:
/// byte k's value lands on bit 56 + k of the product, and no two partial
/// products meet. The tail word, if any, is packed bit by bit.
void PackEquals(const int32_t* column, int32_t n, int32_t key,
                uint64_t* words) {
  static_assert(std::endian::native == std::endian::little);
  const int32_t full = n / 64;
  for (int32_t wi = 0; wi < full; ++wi) {
    const int32_t* const chunk = column + static_cast<ptrdiff_t>(wi) * 64;
    uint8_t equal[64];
    for (int k = 0; k < 64; ++k) equal[k] = chunk[k] == key;
    uint64_t word = 0;
    for (int j = 0; j < 8; ++j) {
      uint64_t bytes;
      std::memcpy(&bytes, equal + 8 * j, sizeof(bytes));
      word |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * j);
    }
    words[wi] = word;
  }
  for (int32_t v = full * 64; v < n; ++v) {
    words[full] |= static_cast<uint64_t>(column[v] == key) << (v & 63);
  }
}

}  // namespace

Axis InverseAxis(Axis axis) {
  switch (axis) {
    case Axis::kSelf: return Axis::kSelf;
    case Axis::kChild: return Axis::kParent;
    case Axis::kParent: return Axis::kChild;
    case Axis::kDescendant: return Axis::kAncestor;
    case Axis::kAncestor: return Axis::kDescendant;
    case Axis::kDescendantOrSelf: return Axis::kAncestorOrSelf;
    case Axis::kAncestorOrSelf: return Axis::kDescendantOrSelf;
    case Axis::kFollowing: return Axis::kPreceding;
    case Axis::kPreceding: return Axis::kFollowing;
    case Axis::kFollowingSibling: return Axis::kPrecedingSibling;
    case Axis::kPrecedingSibling: return Axis::kFollowingSibling;
  }
  GKX_CHECK(false);
  return Axis::kSelf;
}

// Every dense pass streams one SoA column in preorder and reads and writes
// the sets a word (64 nodes) at a time, with no per-node call and no walk
// of child lists. Child and ancestor* keep a second form, a walk over the
// input's members, which UseSparse picks for a sparse input; each other
// axis has the one form that won at every density.
NodeBitset AxisImage(const xml::Document& doc, Axis axis,
                     const NodeBitset& input) {
  const int32_t n = doc.size();
  GKX_CHECK_EQ(input.universe(), n);
  // Raw SoA columns and words: every node id below is a member of `input`
  // or a link of the document, and Document's invariant (document.hpp,
  // enforced for snapshots at decode) puts every link in [0, n) or at
  // kNullNode, with parent(v) < v.
  const xml::NodeId* const parent = doc.parent_data();
  const xml::NodeId* const first_child = doc.first_child_data();
  const xml::NodeId* const next_sibling = doc.next_sibling_data();
  const xml::NodeId* const prev_sibling = doc.prev_sibling_data();
  const int32_t* const subtree_size = doc.subtree_size_data();
  const uint64_t* const in = input.words();
  NodeBitset out(n);
  uint64_t* const o = out.words();
  switch (axis) {
    case Axis::kSelf:
      out = input;
      return out;
    case Axis::kChild:
      if (UseSparse(input, n)) {
        // Child sets of distinct parents are disjoint — emit each member's
        // child list directly, O(Σ children of members).
        ForEachMember(input, [&](xml::NodeId u) {
          for (xml::NodeId c = first_child[u]; c != xml::kNullNode;
               c = next_sibling[c]) {
            out.Set(c);
          }
        });
        return out;
      }
      // Dense: y is a child of some x in input iff parent(y) ∈ input. Each
      // output word gathers its 64 parents' input bits without a branch;
      // the root has no parent, so the first word starts at node 1.
      for (size_t wi = 0; wi < out.word_count(); ++wi) {
        const int32_t base = static_cast<int32_t>(wi * 64);
        const int32_t end = std::min(n, base + 64);
        uint64_t word = 0;
        for (int32_t v = std::max(base, 1); v < end; ++v) {
          const uint32_t p = static_cast<uint32_t>(parent[v]);
          word |= ((in[p >> 6] >> (p & 63)) & 1) << (v & 63);
        }
        o[wi] = word;
      }
      return out;
    case Axis::kParent:
      // One parent store per member, at any density: a dense pass would
      // read the parent column of every node to learn no more.
      ForEachMember(input, [&](xml::NodeId u) {
        const xml::NodeId p = parent[u];
        if (p != xml::kNullNode) out.Set(p);
      });
      return out;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      // A subtree is the contiguous preorder range [u, u + size(u)), so the
      // image is a union of intervals. Subtree ranges are nested or
      // disjoint: walking the members in preorder, one whose range ends
      // inside the covered prefix lies under an earlier member and adds
      // nothing, and any other starts at or past the cover.
      const bool or_self = axis == Axis::kDescendantOrSelf;
      int32_t cover = 0;
      ForEachMember(input, [&](xml::NodeId u) {
        const int32_t end = u + subtree_size[u];
        if (end <= cover) return;
        out.SetRange(or_self ? u : u + 1, end);
        cover = end;
      });
      return out;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      const bool or_self = axis == Axis::kAncestorOrSelf;
      if (UseSparse(input, n)) {
        // Chain walk with stop-on-marked: once a walk reaches a node some
        // earlier walk marked, everything above it is already (or will be)
        // marked by that walk — O(unique ancestors + |frontier|) total.
        ForEachMember(input, [&](xml::NodeId u) {
          if (or_self) out.Set(u);
          for (xml::NodeId a = parent[u];
               a != xml::kNullNode && !out.Test(a); a = parent[a]) {
            out.Set(a);
          }
        });
        return out;
      }
      // Dense: v's strict subtree is the preorder range (v, v + size(v)),
      // so v is an ancestor of an input node iff the first input node after
      // v lies before v + size(v). One reverse-preorder pass carries that
      // node and streams the subtree-size column; the or-self image adds
      // the input itself.
      int32_t next = n;  // first input node after v, or n
      for (size_t wi = out.word_count(); wi-- > 0;) {
        const int32_t base = static_cast<int32_t>(wi * 64);
        const uint64_t members = in[wi];
        uint64_t word = 0;
        for (int32_t v = std::min(n, base + 64) - 1; v >= base; --v) {
          word |= static_cast<uint64_t>(next < v + subtree_size[v])
                  << (v & 63);
          next = (members >> (v & 63)) & 1 ? v : next;
        }
        o[wi] = or_self ? word | members : word;
      }
      return out;
    }
    case Axis::kFollowing: {
      // following(x) = [x + size(x), n); the union over input is the suffix
      // from the minimal cutoff (note a descendant of an input node can have
      // a smaller cutoff than the input node itself).
      int32_t cutoff = n;
      ForEachMember(input, [&](xml::NodeId v) {
        cutoff = std::min(cutoff, v + subtree_size[v]);
      });
      out.SetRange(cutoff, n);
      return out;
    }
    case Axis::kPreceding: {
      // y ∈ preceding(x) iff y < x and y is not an ancestor of x. The last
      // input node m has the largest such set (y + size(y) <= x <= m), so
      // the image is [0, m) minus m's ancestor chain, at any density.
      const int32_t m = LastMember(input);
      if (m <= 0) return out;  // empty input, or only the root
      out.SetRange(0, m);
      for (xml::NodeId a = parent[m]; a != xml::kNullNode; a = parent[a]) {
        o[a >> 6] &= ~(uint64_t{1} << (a & 63));
      }
      return out;
    }
    case Axis::kFollowingSibling:
      // Member walks with stop-on-marked, O(output + |frontier|), at any
      // density: once a walk reaches a sibling an earlier walk marked, the
      // rest of the chain is already marked by that walk.
      ForEachMember(input, [&](xml::NodeId u) {
        for (xml::NodeId s = next_sibling[u];
             s != xml::kNullNode && !out.Test(s); s = next_sibling[s]) {
          out.Set(s);
        }
      });
      return out;
    case Axis::kPrecedingSibling:
      // Mirror walk along prev_sibling.
      ForEachMember(input, [&](xml::NodeId u) {
        for (xml::NodeId s = prev_sibling[u];
             s != xml::kNullNode && !out.Test(s); s = prev_sibling[s]) {
          out.Set(s);
        }
      });
      return out;
  }
  GKX_CHECK(false);
  return out;
}

Result<Value> CoreLinearEvaluator::Evaluate(const xml::Document& doc,
                                            const xpath::Query& query,
                                            const Context& ctx) {
  if (doc.empty()) return InvalidArgumentError("empty document");
  if (!xpath::Classify(query).in_core) {
    return UnsupportedError(
        "core-linear evaluates Core XPath only (Def 2.5); query is outside");
  }
  Bind(doc);

  NodeBitset start(doc.size());
  start.Set(ctx.node);

  auto result = EvalNodeSetForward(query.root(), start);
  if (!result.ok()) return result.status();
  return Value::Nodes(result->ToNodeSet());
}

Result<NodeBitset> CoreLinearEvaluator::EvalNodeSetForward(
    const Expr& expr, const NodeBitset& start) {
  if (expr.kind() == Expr::Kind::kUnion) {
    const auto& u = expr.As<xpath::UnionExpr>();
    NodeBitset merged(doc_->size());
    for (size_t i = 0; i < u.branch_count(); ++i) {
      auto branch = EvalNodeSetForward(u.branch(i), start);
      if (!branch.ok()) return branch.status();
      merged |= *branch;
    }
    return merged;
  }
  return EvalPathForward(expr.As<PathExpr>(), start);
}

const NodeBitset& CoreLinearEvaluator::TestSet(const Step& step) {
  const xml::Document& doc = *doc_;
  const ResolvedTest test = ResolvedTest::Resolve(doc, step.test);
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(test.kind)) << 32) |
      static_cast<uint64_t>(static_cast<uint32_t>(test.name));
  auto cached = test_cache_.find(key);
  if (cached != test_cache_.end()) return cached->second;

  const int32_t n = doc.size();
  NodeBitset out(n);
  if (test.kind != xpath::NodeTest::Kind::kName) {
    out.SetAll();  // kAny / kNode match every element node
  } else if (test.name != xml::kNoName) {
    // The tag column, compared and packed 64 nodes to a word. Extra labels
    // are disjoint from the tag, so their spans are searched in a second
    // pass, only when the document carries any.
    PackEquals(doc.tag_data(), n, test.name, out.words());
    if (doc.has_labels()) {
      for (xml::NodeId v = 0; v < n; ++v) {
        const std::span<const xml::NameId> labels = doc.labels(v);
        if (std::binary_search(labels.begin(), labels.end(), test.name)) {
          out.Set(v);
        }
      }
    }
  }
  // else: name never occurs in the document — empty set.
  return test_cache_.emplace(key, std::move(out)).first->second;
}

Result<NodeBitset> CoreLinearEvaluator::EvalStepRange(const PathExpr& path,
                                                      size_t begin, size_t end,
                                                      const NodeBitset& frontier) {
  GKX_CHECK(doc_ != nullptr);
  GKX_CHECK(begin <= end && end <= path.step_count());
  const xml::Document& doc = *doc_;
  NodeBitset current = frontier;
  // An empty set settles the range: no later test set is filled and no
  // later condition set built, for this step or any after it.
  for (size_t s = begin; s < end && !current.Empty(); ++s) {
    const Step& step = path.step(s);
    current = AxisImage(doc, step.axis, current);
    if (current.Empty()) break;
    current &= TestSet(step);
    for (const xpath::ExprPtr& predicate : step.predicates) {
      if (current.Empty()) break;
      auto cond = ConditionSet(*predicate);
      if (!cond.ok()) return cond.status();
      current &= **cond;
    }
  }
  return current;
}

Result<NodeBitset> CoreLinearEvaluator::EvalPathForward(const PathExpr& path,
                                                        const NodeBitset& start) {
  const xml::Document& doc = *doc_;
  NodeBitset current(doc.size());
  if (path.absolute()) {
    current.Set(doc.root());
  } else {
    current = start;
  }
  return EvalStepRange(path, 0, path.step_count(), current);
}

Result<NodeBitset> CoreLinearEvaluator::PathOriginSet(const PathExpr& path) {
  GKX_CHECK(!path.absolute());
  const xml::Document& doc = *doc_;
  // Right-to-left: R = nodes from which the remaining steps can match. Once
  // a step's target is empty, so is every origin set to its left: the sweep
  // stops, and no later predicate's condition set is built.
  NodeBitset reach(doc.size());
  reach.SetAll();
  for (size_t s = path.step_count(); s-- > 0;) {
    const Step& step = path.step(s);
    NodeBitset target = std::move(reach);
    target &= TestSet(step);
    for (const xpath::ExprPtr& predicate : step.predicates) {
      if (target.Empty()) return target;
      auto cond = ConditionSet(*predicate);
      if (!cond.ok()) return cond.status();
      target &= **cond;
    }
    if (target.Empty()) return target;
    reach = AxisImage(doc, InverseAxis(step.axis), target);
  }
  return reach;
}

Result<NodeBitset> CoreLinearEvaluator::AbsolutePathSet(const PathExpr& path) {
  // A constant: it runs once, forward from the root, where an empty step
  // ends the sweep.
  NodeBitset root(doc_->size());
  root.Set(doc_->root());
  auto selected = EvalStepRange(path, 0, path.step_count(), root);
  if (!selected.ok()) return selected.status();
  NodeBitset out(doc_->size());
  if (!selected->Empty()) out.SetAll();
  return out;
}

Result<const NodeBitset*> CoreLinearEvaluator::ConditionSet(const Expr& expr) {
  auto cached = condition_cache_.find(expr.id());
  if (cached != condition_cache_.end()) return &cached->second;

  Result<NodeBitset> result = [&]() -> Result<NodeBitset> {
    switch (expr.kind()) {
      case Expr::Kind::kBinary: {
        const auto& binary = expr.As<xpath::BinaryExpr>();
        auto lhs = ConditionSet(binary.lhs());
        if (!lhs.ok()) return lhs.status();
        auto rhs = ConditionSet(binary.rhs());
        if (!rhs.ok()) return rhs.status();
        NodeBitset out = **lhs;
        if (binary.op() == BinaryOp::kAnd) {
          out &= **rhs;
        } else {
          GKX_CHECK(binary.op() == BinaryOp::kOr);
          out |= **rhs;
        }
        return out;
      }
      case Expr::Kind::kFunctionCall: {
        const auto& call = expr.As<xpath::FunctionCall>();
        GKX_CHECK(call.function() == Function::kNot);
        auto arg = ConditionSet(call.arg(0));
        if (!arg.ok()) return arg.status();
        NodeBitset out = **arg;
        out.Complement();
        return out;
      }
      case Expr::Kind::kPath: {
        const auto& path = expr.As<PathExpr>();
        return path.absolute() ? AbsolutePathSet(path) : PathOriginSet(path);
      }
      case Expr::Kind::kUnion: {
        const auto& u = expr.As<xpath::UnionExpr>();
        NodeBitset out(doc_->size());
        for (size_t i = 0; i < u.branch_count(); ++i) {
          auto branch = ConditionSet(u.branch(i));
          if (!branch.ok()) return branch.status();
          out |= **branch;
        }
        return out;
      }
      default:
        return UnsupportedError("non-Core condition in core-linear evaluator");
    }
  }();

  if (!result.ok()) return result.status();
  return &condition_cache_.emplace(expr.id(), std::move(*result)).first->second;
}

}  // namespace gkx::eval
