// Index-accelerated evaluation for the bread-and-butter PF shapes
// (/descendant::a/child::b, //a//b, unions of such paths). Where the
// pf-frontier engine sweeps one O(|D|) bitset image per step, this path
// answers name-tested descendant steps with binary-search range scans over
// the DocumentIndex posting lists — O(frontier · log |D| + answer) — which
// is the difference between touching every node and touching only matching
// ones on large documents with selective tags.
//
// Strictly a fast path: TryIndexedPath returns nullopt for anything outside
// the supported shape (reverse/sibling/parent axes, predicates, wildcard
// descendant steps, non-path roots) and the caller falls back to the
// regular engine. When it does
// answer, the node set is byte-identical to pf-frontier's (document order,
// duplicate-free) — the service's differential tests pin this.

#ifndef GKX_SERVICE_INDEXED_PATH_HPP_
#define GKX_SERVICE_INDEXED_PATH_HPP_

#include <optional>

#include "eval/node_set.hpp"
#include "xml/index.hpp"
#include "xpath/ast.hpp"

namespace gkx::service {

/// Evaluates `query` from the context node `origin` (relative paths start
/// there; absolute paths start at the root regardless). `query` must be a
/// normalized plan query (plan::Normalize, as Engine::Compile runs it):
/// xpath::Optimize has already fused the '//' idiom
/// descendant-or-self::node()/child::t into descendant::t, and this route
/// does not repeat that rewrite. Returns nullopt if the query falls outside
/// the supported PF subset:
///   * root is a PathExpr or a union of PathExprs,
///   * every step is predicate-free on self/child/descendant/
///     descendant-or-self,
///   * every descendant(-or-self) step has a name test: a `*`/node() one
///     selects a whole subtree range, which the posting lists cannot narrow
///     and the pf-frontier sweep sets a word at a time, so the route
///     declines it (self and child steps may still be wildcards).
std::optional<eval::NodeSet> TryIndexedPath(const xml::DocumentIndex& index,
                                            const xpath::Query& query,
                                            xml::NodeId origin = 0);

}  // namespace gkx::service

#endif  // GKX_SERVICE_INDEXED_PATH_HPP_
