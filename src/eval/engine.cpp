#include "eval/engine.hpp"

#include <utility>

namespace gkx::eval {

Result<Engine::Plan> Engine::Compile(std::string_view query_text) {
  auto query = xpath::ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return CompileParsed(std::move(query).value());
}

Engine::Plan Engine::CompileParsed(xpath::Query query) {
  return plan::Compile(std::move(query));
}

Result<Engine::Answer> Engine::RunPlan(const xml::Document& doc,
                                       const Plan& plan, const Context& ctx,
                                       plan::ExecTrace* trace) {
  auto value = plan::ExecuteStaged(doc, plan, ctx, &linear_, &cvt_, trace);
  if (!value.ok()) return value.status();
  return Answer{std::move(value).value(), plan.fragment, plan.route_label};
}

Result<Engine::Answer> Engine::Run(const xml::Document& doc,
                                   std::string_view query_text) {
  auto plan = Compile(query_text);
  if (!plan.ok()) return plan.status();
  return RunPlan(doc, *plan, RootContext(doc));
}

}  // namespace gkx::eval
