// Recursive-descent parser for the XPath subset described in ast.hpp.
// Abbreviations are expanded at parse time:
//   //   ->  /descendant-or-self::node()/
//   name ->  child::name          .  -> self::node()    .. -> parent::node()
// Variables ($x), attribute (@/attribute::) and namespace axes are rejected
// with targeted error messages (they fall outside every fragment the paper
// analyses). Nesting is bounded by kMaxQueryDepth, checked while parsing.

#ifndef GKX_XPATH_PARSER_HPP_
#define GKX_XPATH_PARSER_HPP_

#include <string_view>

#include "base/status.hpp"
#include "xpath/ast.hpp"

namespace gkx::xpath {

/// The deepest query ParseQuery accepts. It bounds both the parser's own
/// recursion (every parenthesis, predicate, function argument list and
/// unary minus opens a level) and the depth of the built expression tree
/// (a left-deep `1+1+...+1` nests without recursing), so neither the parser
/// nor any later recursive pass over a parsed query can overflow the stack
/// on hostile input. Deeper input is rejected with InvalidArgument and the
/// offset where the bound was crossed; no deeper tree is ever built.
///
/// The value is ten times the deepest query the test suites parse (tree
/// depth 46) and is sized for the costliest shape, nested predicates: about
/// 1.3 KB of parser stack per level in an optimized build and about 10 KB
/// under AddressSanitizer, so the bound still fits an 8 MiB thread stack
/// there.
inline constexpr int kMaxQueryDepth = 500;

/// Parses a complete XPath expression into a Query.
Result<Query> ParseQuery(std::string_view text);

/// Parses and aborts on error — for tests and inline query constants.
Query MustParse(std::string_view text);

}  // namespace gkx::xpath

#endif  // GKX_XPATH_PARSER_HPP_
