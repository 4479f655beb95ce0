// Theorem 4.3 / Figure 5: NL-hardness of PF (predicate-free location paths)
// via an L-reduction from directed-graph reachability.
//
// The paper gives the reduction by example; the figure's exact chain lengths
// are not recoverable from the text, so we use the same ingredients with
// constants we can prove correct (the argument follows the list):
//
//   * a spine p1..p(2n) (node p_d at depth d, all labeled `p`); p_j (j <= n)
//     additionally carries the vertex label `u<j>` ("upper port" of vertex
//     j); p_(n+j) is vertex j's "lower port";
//   * each lower port p_(n+i) has exactly one child labeled `c`, under which
//     one unary chain of `x` nodes hangs per edge (i,j), ending in a tip
//     labeled `e` at absolute depth 3n+j+1 (the target is unary-encoded in
//     the tip's depth);
//   * the edge-traversal path is
//       E := child::*^n / child::c / descendant::e / parent::*^(3n+1)
//     mapping the upper port of i to exactly the upper ports of i's
//     out-neighbours (junk branches die at child::c; the tip's depth-j
//     ancestor is always the spine node p_j because j <= n < n+i);
//   * with self-loops added (the paper's trick), reachability becomes
//       /descendant::u<src> / E^n / self::u<dst>  non-empty.
//
// Why E maps the upper port p_i to exactly the upper ports of i's
// out-neighbours: child::*^n from p_i reaches only nodes at depth n+i, and
// of those only the spine node p_(n+i) has a `c` child (a `c` hangs under a
// lower port only, and a chain node's children are `x` or `e`), so child::c
// keeps vertex i's bundle alone. Below that `c`, descendant::e selects the
// tips of i's edges, the tip of (i,j) at depth 3n+j+1. parent::*^(3n+1)
// lifts each tip to its depth-j ancestor; the tip hangs below p_(n+i) and
// j <= n < n+i, so that ancestor is the spine node p_j. Every edge fits:
// the chain from depth(c) = n+i+1 down to the tip is 2n+j-i >= n+1 >= 2
// steps long, so each chain has at least one `x` node. With the self-loops,
// E^n from p_src reaches the upper ports of exactly the vertices reachable
// from src in at most n steps, which is every vertex reachable at all.
//
// Everything is PF: the 4 axes child/parent/descendant/self, no predicates.

#ifndef GKX_REDUCTIONS_REACH_TO_PF_HPP_
#define GKX_REDUCTIONS_REACH_TO_PF_HPP_

#include "graphs/digraph.hpp"
#include "xml/document.hpp"
#include "xpath/ast.hpp"

namespace gkx::reductions {

struct ReachabilityReduction {
  xml::Document doc;
  xpath::Query query;
};

/// Builds (document, PF query) deciding "dst reachable from src in `graph`".
/// Self-loops are added internally; the input graph is not modified.
/// Vertices are 0-based.
ReachabilityReduction ReachabilityToPf(const graphs::Digraph& graph,
                                       int32_t src, int32_t dst);

/// The document alone (shared across queries about the same graph).
xml::Document ReachabilityDocument(const graphs::Digraph& graph_with_loops);

/// The query alone (for a given vertex count n = graph.num_vertices()).
xpath::Query ReachabilityQuery(int32_t n, int32_t src, int32_t dst);

}  // namespace gkx::reductions

#endif  // GKX_REDUCTIONS_REACH_TO_PF_HPP_
