#include "xml/parser.hpp"

#include <utility>

#include "xml/builder.hpp"
#include "xml/parser_core.hpp"

namespace gkx::xml {

Result<Document> ParseDocument(std::string_view xml) {
  PreorderBuilder builder(parser_internal::EstimateNodeCount(xml));
  parser_internal::EventParser parser(xml, &builder);
  GKX_RETURN_IF_ERROR(parser.Run());
  return std::move(builder).Finish();
}

}  // namespace gkx::xml
