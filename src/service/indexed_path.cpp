#include "service/indexed_path.hpp"

#include <algorithm>

#include "eval/axes.hpp"

namespace gkx::service {

namespace {

using eval::NodeSet;
using eval::SortUnique;
using xml::NodeId;
using xpath::Axis;
using xpath::NodeTest;

bool IsWildcard(const NodeTest& test) {
  // Element-only data model: '*' and node() match every node.
  return test.kind == NodeTest::Kind::kAny || test.kind == NodeTest::Kind::kNode;
}

/// One normalized step of the supported subset.
struct FlatStep {
  Axis axis = Axis::kChild;
  bool wildcard = true;
  xml::NameId name = xml::kNoName;  // when !wildcard
};

/// Flattens a path into supported steps. Returns false if any step falls
/// outside the subset, a wildcard descendant step included.
bool FlattenSteps(const xml::Document& doc, const xpath::PathExpr& path,
                  std::vector<FlatStep>* out) {
  for (size_t s = 0; s < path.step_count(); ++s) {
    const xpath::Step& step = path.step(s);
    if (!step.predicates.empty()) return false;
    FlatStep flat;
    flat.axis = step.axis;
    flat.wildcard = IsWildcard(step.test);
    if (!flat.wildcard) {
      flat.name = doc.FindName(step.test.name);  // kNoName -> empty result
    }
    switch (step.axis) {
      case Axis::kSelf:
      case Axis::kChild:
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        // A wildcard descendant range holds every node in it, and the
        // posting lists cannot narrow it: copying it node by node loses to
        // the pf-frontier sweep, which sets the range a word at a time.
        if (flat.wildcard) return false;
        break;
      default:
        return false;  // reverse/sibling/parent/following axes: fall back
    }
    out->push_back(flat);
  }
  return true;
}

/// Applies one flattened step to a sorted frontier.
NodeSet ApplyFlatStep(const xml::DocumentIndex& index, const FlatStep& step,
                      const NodeSet& frontier) {
  const xml::Document& doc = index.doc();
  NodeSet next;
  switch (step.axis) {
    case Axis::kSelf:
      if (step.wildcard) return frontier;
      for (NodeId v : frontier) {
        if (doc.NodeHasName(v, step.name)) next.push_back(v);
      }
      return next;  // subset of a sorted set stays sorted
    case Axis::kChild:
      for (NodeId f : frontier) {
        for (NodeId c = doc.first_child(f); c != xml::kNullNode;
             c = doc.next_sibling(c)) {
          if (step.wildcard || doc.NodeHasName(c, step.name)) {
            next.push_back(c);
          }
        }
      }
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      // Named: FlattenSteps declines wildcard descendant steps.
      const NodeId self_offset = step.axis == Axis::kDescendant ? 1 : 0;
      for (NodeId f : frontier) {
        index.AppendNamedInRange(step.name, f + self_offset,
                                 f + doc.subtree_size(f), &next);
      }
      break;
    }
    default:
      GKX_CHECK(false);  // FlattenSteps admits no other axis
  }
  // Frontier nodes can be nested (after descendant steps), so per-origin
  // results may interleave and repeat.
  SortUnique(&next);
  return next;
}

std::optional<NodeSet> EvalPath(const xml::DocumentIndex& index,
                                const xpath::PathExpr& path, NodeId origin) {
  std::vector<FlatStep> steps;
  if (!FlattenSteps(index.doc(), path, &steps)) return std::nullopt;
  NodeSet frontier{path.absolute() ? index.doc().root() : origin};
  for (const FlatStep& step : steps) {
    if (frontier.empty()) break;
    frontier = ApplyFlatStep(index, step, frontier);
  }
  return frontier;
}

}  // namespace

std::optional<NodeSet> TryIndexedPath(const xml::DocumentIndex& index,
                                      const xpath::Query& query,
                                      NodeId origin) {
  if (index.doc().empty()) return std::nullopt;
  const xpath::Expr& root = query.root();
  switch (root.kind()) {
    case xpath::Expr::Kind::kPath:
      return EvalPath(index, root.As<xpath::PathExpr>(), origin);
    case xpath::Expr::Kind::kUnion: {
      const auto& u = root.As<xpath::UnionExpr>();
      // Each branch is sorted and duplicate-free: merge, don't re-sort.
      NodeSet merged;
      for (size_t i = 0; i < u.branch_count(); ++i) {
        if (u.branch(i).kind() != xpath::Expr::Kind::kPath) return std::nullopt;
        auto branch =
            EvalPath(index, u.branch(i).As<xpath::PathExpr>(), origin);
        if (!branch) return std::nullopt;
        merged = eval::UnionSets(merged, *branch);
      }
      return merged;
    }
    default:
      return std::nullopt;
  }
}

}  // namespace gkx::service
