#include "eval/core_linear_evaluator.hpp"

#include <algorithm>
#include <utility>
#include <vector>

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

/// Sparse-frontier gate. The per-node sweeps are O(|D|) regardless of the
/// frontier; the member walks below are O(|frontier| + output). A member
/// walk touching ~4 nodes per member beats a full per-node pass whenever
/// members*4 < |D|.
bool UseSparse(const NodeBitset& input, int32_t universe) {
  return input.Count() * 4 < universe;
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

// Child, parent and ancestor* have two formulations: a per-node sweep over
// the whole document, O(|D|), and a walk over the input's members,
// O(|frontier| + output), which UseSparse picks exactly when it is
// cheaper. The other axes have one.
NodeBitset AxisImage(const xml::Document& doc, Axis axis,
                     const NodeBitset& input) {
  const int32_t n = doc.size();
  GKX_CHECK_EQ(input.universe(), n);
  // Raw SoA columns: the sweeps below stream exactly the 4-byte stripe they
  // need, and every index is already range-proved by the plan/frontier.
  const xml::NodeId* const parent = doc.parent_data();
  const xml::NodeId* const first_child = doc.first_child_data();
  const xml::NodeId* const next_sibling = doc.next_sibling_data();
  const xml::NodeId* const prev_sibling = doc.prev_sibling_data();
  const int32_t* const subtree_size = doc.subtree_size_data();
  NodeBitset out(n);
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
      // Dense: y is a child of some x in input iff parent(y) ∈ input.
      for (int32_t v = 1; v < n; ++v) {
        if (input.Test(parent[v])) out.Set(v);
      }
      return out;
    case Axis::kParent:
      if (UseSparse(input, n)) {
        // O(|frontier|): one parent store per member.
        ForEachMember(input, [&](xml::NodeId u) {
          const xml::NodeId p = parent[u];
          if (p != xml::kNullNode) out.Set(p);
        });
        return out;
      }
      // Dense: v is a parent of some input node iff one of v's children is
      // in input — walk each node's child list (O(n) aggregate; every node
      // is inspected once as a child).
      for (int32_t v = 0; v < n; ++v) {
        for (xml::NodeId c = first_child[v]; c != xml::kNullNode;
             c = next_sibling[c]) {
          if (input.Test(c)) {
            out.Set(v);
            break;
          }
        }
      }
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
      const bool sparse_or_self = axis == Axis::kAncestorOrSelf;
      if (UseSparse(input, n)) {
        // Chain walk with stop-on-marked: once a walk reaches a node some
        // earlier walk marked, everything above it is already (or will be)
        // marked by that walk — O(unique ancestors + |frontier|) total.
        ForEachMember(input, [&](xml::NodeId u) {
          if (sparse_or_self) out.Set(u);
          for (xml::NodeId a = parent[u];
               a != xml::kNullNode && !out.Test(a); a = parent[a]) {
            out.Set(a);
          }
        });
        return out;
      }
      // Dense: prefix[v] = |input ∩ [0, v)|, so the members inside
      // subtree(v) number prefix[v + size(v)] − prefix[v]. Strict
      // ancestors exclude v itself (start the window at v + 1).
      std::vector<int32_t> prefix(static_cast<size_t>(n) + 1, 0);
      int32_t running = 0;
      for (int32_t v = 0; v < n; ++v) {
        if (input.Test(v)) ++running;
        prefix[static_cast<size_t>(v) + 1] = running;
      }
      const bool or_self = axis == Axis::kAncestorOrSelf;
      for (int32_t v = 0; v < n; ++v) {
        const int32_t end = v + subtree_size[v];
        const int32_t from = or_self ? v : v + 1;
        if (prefix[static_cast<size_t>(end)] -
                prefix[static_cast<size_t>(from)] >
            0) {
          out.Set(v);
        }
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
      // y ∈ preceding(x) iff y + size(y) <= x, so the maximal input x
      // decides; then a per-node test over the nodes before it.
      int32_t max_input = -1;
      ForEachMember(input, [&](xml::NodeId v) { max_input = v; });
      for (int32_t v = 0; v < max_input; ++v) {
        if (v + subtree_size[v] <= max_input) out.Set(v);
      }
      return out;
    }
    case Axis::kFollowingSibling:
      // Member walks with stop-on-marked make the sibling axes
      // O(output + |frontier|) instead of O(|D|): once a walk reaches a
      // sibling an earlier walk marked, the rest of the chain is already
      // marked by that walk.
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
  xpath::FragmentReport report = xpath::Classify(query);
  if (!report.in_core) {
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

  NodeBitset out(doc.size());
  if (test.kind != xpath::NodeTest::Kind::kName) {
    out.SetAll();  // kAny / kNode match every element node
  } else if (test.name != xml::kNoName) {
    for (xml::NodeId v = 0; v < doc.size(); ++v) {
      if (doc.NodeHasName(v, test.name)) out.Set(v);
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
  std::vector<const NodeBitset*> masks;
  for (size_t s = begin; s < end; ++s) {
    const Step& step = path.step(s);
    current = AxisImage(doc, step.axis, current);
    // Fused intersection: the test set and every predicate set are ANDed
    // into `current` in a single word-at-a-time pass instead of one
    // full-bitset pass per mask.
    masks.clear();
    masks.push_back(&TestSet(step));
    for (const xpath::ExprPtr& predicate : step.predicates) {
      auto cond = ConditionSet(*predicate);
      if (!cond.ok()) return cond.status();
      masks.push_back(*cond);
    }
    uint64_t* cur = current.words();
    for (size_t w = 0; w < current.word_count(); ++w) {
      uint64_t word = cur[w];
      for (const NodeBitset* mask : masks) word &= mask->words()[w];
      cur[w] = word;
    }
    if (current.Empty()) break;
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
  const xml::Document& doc = *doc_;
  // Right-to-left: R = nodes from which the remaining steps can match.
  NodeBitset reach(doc.size());
  reach.SetAll();
  for (size_t s = path.step_count(); s-- > 0;) {
    const Step& step = path.step(s);
    NodeBitset target = std::move(reach);
    target &= TestSet(step);
    for (const xpath::ExprPtr& predicate : step.predicates) {
      auto cond = ConditionSet(*predicate);
      if (!cond.ok()) return cond.status();
      target &= **cond;
    }
    reach = AxisImage(doc, InverseAxis(step.axis), target);
  }
  if (path.absolute()) {
    // The path matches from anywhere iff it matches from the root.
    NodeBitset out(doc.size());
    if (reach.Test(doc.root())) out.SetAll();
    return out;
  }
  return reach;
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
      case Expr::Kind::kPath:
        return PathOriginSet(expr.As<PathExpr>());
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
