#include "xml/parser.hpp"

#include <algorithm>
#include <utility>

#include "xml/builder.hpp"
#include "xml/parser_core.hpp"

namespace gkx::xml {
namespace {

/// The most nodes a parse reserves its columns for up front. The estimate
/// is counted off untrusted bytes, so past this many nodes the columns grow
/// as elements arrive: at the cap the 11 columns hold 112 MiB of
/// address space, where 1 GiB of "<a" would otherwise claim about 28 GiB.
constexpr int32_t kMaxReservedNodes = int32_t{1} << 21;

}  // namespace

Result<Document> ParseDocument(std::string_view xml) {
  PreorderBuilder builder(std::min(parser_internal::EstimateNodeCount(xml),
                                   kMaxReservedNodes));
  parser_internal::EventParser parser(xml, &builder);
  GKX_RETURN_IF_ERROR(parser.Run());
  return std::move(builder).Finish();
}

}  // namespace gkx::xml
