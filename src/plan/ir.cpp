#include "plan/ir.hpp"

#include <utility>

#include "base/check.hpp"
#include "xpath/optimize.hpp"
#include "xpath/printer.hpp"

namespace gkx::plan {

std::string_view RouteName(Route route) {
  switch (route) {
    case Route::kPfFrontier: return "pf-frontier";
    case Route::kCoreLinear: return "core-linear";
    case Route::kCvt: return "cvt";
  }
  GKX_CHECK(false);
  return {};
}

Normalized Normalize(xpath::Query parsed) {
  xpath::Query query = xpath::Optimize(parsed);
  std::string canonical_text = xpath::ToXPathString(query);
  return Normalized{std::move(query), std::move(canonical_text)};
}

}  // namespace gkx::plan
