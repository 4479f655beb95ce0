// Engine facade tests: per-step routing through the one executor (Core
// predicates on the linear engine, everything else on context-value
// tables), parse error propagation, and end-to-end answers.

#include <gtest/gtest.h>

#include "eval/engine.hpp"
#include "xml/parser.hpp"

namespace gkx::eval {
namespace {

xml::Document Doc() {
  auto doc = xml::ParseDocument("<r><a><b/><b/></a><a/><c/></r>");
  GKX_CHECK(doc.ok());
  return std::move(doc).value();
}

TEST(EngineTest, DispatchesCoreToLinear) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a[child::b]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "core-linear");
  EXPECT_TRUE(answer->fragment.in_core);
  EXPECT_EQ(answer->value.nodes(), (NodeSet{1}));
}

TEST(EngineTest, DispatchesPositionalToCvt) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a[position() = 2]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "cvt");
  EXPECT_EQ(answer->fragment.smallest, xpath::Fragment::kPWF);
  EXPECT_EQ(answer->value.nodes(), (NodeSet{4}));
}

TEST(EngineTest, ScalarAnswer) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "count(/descendant::b) * 10");
  ASSERT_TRUE(answer.ok());
  EXPECT_DOUBLE_EQ(answer->value.number(), 20.0);
  EXPECT_EQ(answer->fragment.smallest, xpath::Fragment::kFullXPath);
  EXPECT_EQ(answer->evaluator, "cvt");
}

TEST(EngineTest, ParseErrorsPropagate) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "child::");
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CustomContext) {
  xml::Document doc = Doc();
  Engine engine;
  auto plan = Engine::Compile("child::b");
  ASSERT_TRUE(plan.ok());
  auto answer = engine.RunPlan(doc, *plan, Context{1, 1, 1});
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->value.nodes(), (NodeSet{2, 3}));
}

TEST(EngineTest, FragmentReportComplexityVerdicts) {
  xml::Document doc = Doc();
  Engine engine;
  auto pf = engine.Run(doc, "child::a/child::b");
  ASSERT_TRUE(pf.ok());
  EXPECT_EQ(pf->fragment.smallest, xpath::Fragment::kPF);
  EXPECT_NE(xpath::FragmentComplexity(pf->fragment.smallest).find("NL"),
            std::string_view::npos);
}

TEST(EngineTest, DispatchesPfToFrontier) {
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a/child::b");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "pf-frontier");
  EXPECT_EQ(answer->value.nodes(), (NodeSet{2, 3}));
}

TEST(EngineTest, HybridPlansReportTheRouteList) {
  // A PF-routable spine with one non-Core predicate stages: the evaluator
  // string is the per-segment route list, not a single engine name.
  xml::Document doc = Doc();
  Engine engine;
  auto answer = engine.Run(doc, "/descendant::a/child::b[position() = 2]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "pf-frontier+cvt");
  EXPECT_EQ(answer->value.nodes(), (NodeSet{3}));

  auto reversed = engine.Run(doc, "/descendant::b[position() = 2]/parent::a");
  ASSERT_TRUE(reversed.ok());
  EXPECT_EQ(reversed->evaluator, "cvt+pf-frontier");
  EXPECT_EQ(reversed->value.nodes(), (NodeSet{1}));
}

TEST(EngineTest, CompiledHybridPlanExposesSegments) {
  auto plan = Engine::Compile("/descendant::a/child::b[position() = 2]");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->branches.size(), 1u);
  ASSERT_EQ(plan->branches[0].segments.size(), 2u);
  EXPECT_EQ(plan->branches[0].segments[0].route, plan::Route::kPfFrontier);
  EXPECT_EQ(plan->branches[0].segments[1].route, plan::Route::kCvt);
  EXPECT_EQ(plan->route_label, "pf-frontier+cvt");
}

}  // namespace
}  // namespace gkx::eval
