// A self-contained XML parser producing Documents. Supports the XML subset a
// query-evaluation workload needs: elements, attributes, character data,
// comments, CDATA sections, processing instructions, an optional prolog and
// DOCTYPE, and the predefined + numeric character references. Namespaces are
// not interpreted (colons are allowed in names and kept verbatim).
//
// Two conventions are fixed. An attribute named kLabelsAttribute ("labels")
// is a whitespace-separated list of extra node labels (Remark 3.1), not a
// plain attribute; the serializer emits the same convention. Text that is
// only whitespace is dropped, and each text chunk is trimmed.
//
// The parse is one pass: elements appear in the text in preorder, the order
// the arena stores them, so the lexer (xml/parser_core.hpp) feeds each one
// straight into the arena writer (PreorderBuilder, xml/builder.hpp), whose
// columns a pre-scan of the text reserves up front.

#ifndef GKX_XML_PARSER_HPP_
#define GKX_XML_PARSER_HPP_

#include <string_view>

#include "base/status.hpp"
#include "xml/document.hpp"

namespace gkx::xml {

/// Parse error with 1-based position information baked into the message.
Result<Document> ParseDocument(std::string_view xml);

}  // namespace gkx::xml

#endif  // GKX_XML_PARSER_HPP_
