#include "eval/engine.hpp"

#include <utility>

#include "plan/exec.hpp"

namespace gkx::eval {

Result<Engine::Plan> Engine::Compile(std::string_view query_text) {
  auto query = xpath::ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return CompileParsed(std::move(query).value());
}

Engine::Plan Engine::CompileParsed(xpath::Query query) {
  return plan::Compile(std::move(query));
}

Result<Engine::Answer> Engine::RunDispatched(
    const xml::Document& doc, const xpath::Query& query,
    const xpath::FragmentReport& fragment, plan::Route route,
    const Context& ctx) {
  Answer answer;
  answer.fragment = fragment;
  Evaluator& engine = route == plan::Route::kPfFrontier
                          ? static_cast<Evaluator&>(pf_)
                          : route == plan::Route::kCoreLinear
                                ? static_cast<Evaluator&>(linear_)
                                : static_cast<Evaluator&>(cvt_);
  answer.evaluator = std::string(engine.name());
  auto value = engine.Evaluate(doc, query, ctx);
  if (!value.ok()) return value.status();
  answer.value = std::move(value).value();
  return answer;
}

Result<Engine::Answer> Engine::RunPlan(const xml::Document& doc,
                                       const Plan& plan, const Context& ctx,
                                       plan::ExecTrace* trace) {
  if (!plan.staged) {
    return RunDispatched(doc, plan.query, plan.fragment, plan.choice, ctx);
  }
  // Lend this engine's evaluators to the run: an Engine lives across
  // requests, so its binds (test-set bitsets, context-value tables) stay
  // warm for repeat executions of the same plan on the same document —
  // the prepared-statement pattern. Safe because Engine is single-
  // threaded by contract and the evaluators rebuild on any identity change.
  auto value = plan::ExecuteStaged(doc, plan, ctx, trace,
                                   plan::ExecOptions{&linear_, &cvt_});
  if (!value.ok()) return value.status();
  Answer answer;
  answer.value = std::move(value).value();
  answer.fragment = plan.fragment;
  answer.evaluator = plan.route_label;
  return answer;
}

Result<Engine::Answer> Engine::Run(const xml::Document& doc,
                                   std::string_view query_text) {
  auto plan = Compile(query_text);
  if (!plan.ok()) return plan.status();
  return RunPlan(doc, *plan, RootContext(doc));
}

Result<Engine::Answer> Engine::Run(const xml::Document& doc,
                                   const xpath::Query& query,
                                   const Context& ctx) {
  xpath::FragmentReport fragment = xpath::Classify(query);
  return RunDispatched(doc, query, fragment, plan::WholeQueryRoute(fragment),
                       ctx);
}

}  // namespace gkx::eval
