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

Logical Normalize(xpath::Query parsed) {
  Logical out{xpath::Optimize(parsed)};
  out.canonical_text = xpath::ToXPathString(out.query);
  return out;
}

void ClassifyOps(Logical* logical, const xpath::ClassifyOptions& options) {
  const xpath::Query& query = logical->query;
  logical->fragment = xpath::Classify(query, options);
  logical->steps.assign(static_cast<size_t>(query.num_steps()), StepPlan{});
  for (int id = 0; id < query.num_steps(); ++id) {
    const xpath::Step& step = query.step(id);
    StepPlan& plan = logical->steps[static_cast<size_t>(id)];
    if (step.predicates.empty()) {
      plan.route = Route::kPfFrontier;
      continue;
    }
    for (const xpath::ExprPtr& predicate : step.predicates) {
      xpath::ConditionReport report = xpath::ClassifyCondition(*predicate);
      if (!report.in_core) {
        plan.core_predicates = false;
        if (plan.note.empty()) plan.note = std::move(report.note);
      }
    }
    plan.route = plan.core_predicates ? Route::kCoreLinear : Route::kCvt;
  }
  logical->classified = true;
}

}  // namespace gkx::plan
