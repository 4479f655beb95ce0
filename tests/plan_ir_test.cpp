// The staged plan IR: normalize idempotence, per-step routing golden
// cases, segment lowering, and correctness across segment seams (every plan
// shape runs through the one executor and must be byte-identical to the
// naive spec-reading oracle, from root and non-root contexts alike).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/recursive_base.hpp"
#include "plan/exec.hpp"
#include "plan/physical.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xml/parser.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx::plan {
namespace {

using eval::NodeSet;

Normalized NormalizeText(const std::string& text) {
  auto parsed = xpath::ParseQuery(text);
  GKX_CHECK(parsed.ok());
  return Normalize(std::move(*parsed));
}

Physical CompileText(const std::string& text) {
  auto parsed = xpath::ParseQuery(text);
  GKX_CHECK(parsed.ok());
  return Compile(std::move(*parsed));
}

TEST(NormalizeTest, CanonicalFormIsIdempotent) {
  const char* spellings[] = {
      "//a",
      "/descendant-or-self::node()/child::a",
      "/descendant::a[true()]",
      "a/b | c/d",
      "child::a[position() >= 1][child::b]",
      "count(/descendant::a) + 1",
      "self::node()/child::a/self::node()",
  };
  for (const char* text : spellings) {
    Normalized once = NormalizeText(text);
    Normalized twice = NormalizeText(once.canonical_text);
    EXPECT_EQ(once.canonical_text, twice.canonical_text) << text;
  }
}

TEST(NormalizeTest, SharesThePlanCacheNormalForm) {
  // The canonical spelling the IR computes is the same normal form
  // xpath::CanonicalXPathString prints — cache aliasing and planning agree.
  const char* spellings[] = {"//a", "/descendant::a[true()]", "a[b and c]"};
  for (const char* text : spellings) {
    auto parsed = xpath::ParseQuery(text);
    ASSERT_TRUE(parsed.ok());
    const std::string expected = xpath::CanonicalXPathString(*parsed);
    EXPECT_EQ(NormalizeText(text).canonical_text, expected) << text;
  }
}

TEST(StepRouteTest, EveryStepTakesItsCheapestRoute) {
  Physical plan =
      CompileText("/descendant::a/child::b[position() = 2]/descendant::c");
  ASSERT_EQ(plan.query.num_steps(), 3);
  // A predicate-free step, a positional one, a predicate-free one: one
  // segment each.
  ASSERT_EQ(plan.branches.size(), 1u);
  const std::vector<Segment>& segments = plan.branches[0].segments;
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].route, Route::kPfFrontier);
  EXPECT_EQ(segments[1].route, Route::kCvt);
  EXPECT_EQ(segments[1].step_begin, 1);
  EXPECT_EQ(segments[1].step_end, 2);
  EXPECT_EQ(segments[2].route, Route::kPfFrontier);
  EXPECT_EQ(plan.route_label, "pf-frontier+cvt+pf-frontier");
}

TEST(StepRouteTest, CorePredicatesStayOnTheBitsetPath) {
  // Core bexpr predicates (including not()) are condition-set evaluable:
  // the Core step and the predicate-free step fuse into one bitset segment.
  Physical plan = CompileText("/descendant::a[not(child::b)]/child::c");
  ASSERT_EQ(plan.branches.size(), 1u);
  ASSERT_EQ(plan.branches[0].segments.size(), 1u);
  EXPECT_EQ(plan.branches[0].segments[0].route, Route::kCoreLinear);
  EXPECT_EQ(plan.branches[0].segments[0].step_end, 2);
  EXPECT_EQ(plan.route_label, "core-linear");
}

TEST(StepRouteTest, MixedPredicatesOnOneStepNeedCvt) {
  Physical plan = CompileText("/descendant::a[child::b][position() = 2]");
  ASSERT_EQ(plan.branches.size(), 1u);
  ASSERT_EQ(plan.branches[0].segments.size(), 1u);
  EXPECT_EQ(plan.branches[0].segments[0].route, Route::kCvt);
  EXPECT_EQ(plan.route_label, "cvt");
}

TEST(StepRouteTest, ScalarRootsRunWholeOnCvt) {
  Physical plan = CompileText("count(/descendant::a[position() = 2])");
  EXPECT_TRUE(plan.branches.empty());
  EXPECT_EQ(plan.route_label, "cvt");
}

TEST(LowerTest, UniformPlansAreOneSegmentPrograms) {
  Physical pf = CompileText("/descendant::a/child::b");
  ASSERT_EQ(pf.branches.size(), 1u);
  ASSERT_EQ(pf.branches[0].segments.size(), 1u);
  EXPECT_EQ(pf.branches[0].segments[0].step_end, 2);
  EXPECT_EQ(pf.route_label, "pf-frontier");

  // The root path "/" has no steps: one empty pf-frontier segment.
  Physical root = CompileText("/");
  ASSERT_EQ(root.branches.size(), 1u);
  ASSERT_EQ(root.branches[0].segments.size(), 1u);
  EXPECT_EQ(root.branches[0].segments[0].step_end, 0);
  EXPECT_EQ(root.route_label, "pf-frontier");
}

TEST(LowerTest, BitsetRunsFuseAcrossPredicateFreeAndCoreSteps) {
  // cvt, then a Core step and a predicate-free step: one bitset segment.
  Physical plan = CompileText(
      "/descendant::a[position() = 1]/child::b[child::c]/child::d");
  ASSERT_EQ(plan.branches.size(), 1u);
  ASSERT_EQ(plan.branches[0].segments.size(), 2u);
  EXPECT_EQ(plan.branches[0].segments[1].route, Route::kCoreLinear);
  EXPECT_EQ(plan.branches[0].segments[1].step_begin, 1);
  EXPECT_EQ(plan.branches[0].segments[1].step_end, 3);
  EXPECT_EQ(plan.route_label, "cvt+core-linear");
}

TEST(LowerTest, UnionBranchesLowerIndependently) {
  Physical plan =
      CompileText("/descendant::a[position() = 2]/child::b | /child::c");
  ASSERT_EQ(plan.branches.size(), 2u);
  ASSERT_EQ(plan.branches[0].segments.size(), 2u);
  EXPECT_EQ(plan.branches[0].segments[0].route, Route::kCvt);
  EXPECT_EQ(plan.branches[0].segments[1].route, Route::kPfFrontier);
  ASSERT_EQ(plan.branches[1].segments.size(), 1u);
  EXPECT_EQ(plan.branches[1].segments[0].route, Route::kPfFrontier);
  EXPECT_EQ(plan.route_label, "cvt+pf-frontier");

  // Uniform branches keep one segment each; the label lists them all.
  Physical uniform = CompileText("/child::a | /descendant::b[child::c]");
  ASSERT_EQ(uniform.branches.size(), 2u);
  EXPECT_EQ(uniform.route_label, "pf-frontier+core-linear");
}

// ------------------------------------------------------------------ exec

/// Runs `plan` on fresh engines, the way a new eval::Engine would.
Result<eval::Value> Execute(const xml::Document& doc, const Physical& plan,
                            const eval::Context& ctx,
                            ExecTrace* trace = nullptr) {
  eval::CoreLinearEvaluator linear;
  eval::CvtEvaluator cvt;
  return ExecuteStaged(doc, plan, ctx, &linear, &cvt, trace);
}

/// True when the plan runs on more than one route.
bool IsHybrid(const Physical& plan) {
  return plan.route_label.find('+') != std::string::npos;
}

/// Hybrid execution vs the naive oracle on the plan's own (normalized)
/// query — byte-identical node sets required.
void ExpectStagedMatchesNaive(const xml::Document& doc, const Physical& plan,
                              const eval::Context& ctx) {
  eval::NaiveEvaluator naive;
  auto expected = naive.Evaluate(doc, plan.query, ctx);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto actual = Execute(doc, plan, ctx);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_TRUE(expected->Equals(*actual))
      << plan.canonical_text << "\n  naive:  " << expected->DebugString()
      << "\n  staged: " << actual->DebugString();
}

TEST(ExecTest, SegmentSeamsPreserveSemantics) {
  // Generated documents use tag names t0..t{alphabet-1}.
  const char* queries[] = {
      // pf ⇄ cvt seams in both directions.
      "/descendant::t0/child::t1[position() = 2]/descendant::t2",
      "/descendant::t0[position() = 1]/child::t1",
      "/descendant::t1[position() = last()]/parent::t0/child::t1",
      // positional predicate after a reverse axis (axis-order positions).
      "/descendant::t2/ancestor::t0[position() = 1]/child::t1",
      // arithmetic, count(), string functions in the cvt segment.
      "/descendant::t0/child::t1[count(following-sibling::t1) + 1 = 2]/"
      "self::t1",
      "/descendant::t0[string(child::t1) = '']/child::t1",
      // iterated predicates with re-ranking inside the cvt segment.
      "/descendant::t0/child::t1[position() > 1][position() = 1]/self::t1",
      // union of a hybrid branch and a plain branch.
      "/descendant::t0[position() = 2]/child::t1 | /descendant::t2",
  };
  Rng rng(515);
  xml::RandomDocumentOptions options;
  options.node_count = 60;
  options.tag_alphabet = 3;  // tags collide with a/b/c often enough
  for (int round = 0; round < 8; ++round) {
    xml::Document doc = xml::RandomDocument(&rng, options);
    for (const char* text : queries) {
      Physical plan = CompileText(text);
      ASSERT_TRUE(IsHybrid(plan)) << text;
      ExpectStagedMatchesNaive(doc, plan, eval::RootContext(doc));
    }
  }
}

TEST(ExecTest, RelativePlansRespectTheContextNode) {
  Rng rng(616);
  xml::RandomDocumentOptions options;
  options.node_count = 40;
  options.tag_alphabet = 2;
  xml::Document doc = xml::RandomDocument(&rng, options);
  Physical plan = CompileText("child::t0[position() = 2]/descendant::t1");
  ASSERT_TRUE(IsHybrid(plan));
  for (xml::NodeId start = 0; start < doc.size(); ++start) {
    ExpectStagedMatchesNaive(doc, plan, eval::Context{start, 1, 1});
  }
}

TEST(ExecTest, TraceHasOneEntryPerSegmentInPlanOrder) {
  Rng rng(4242);
  xml::RandomDocumentOptions options;
  options.node_count = 300;
  options.chain_bias = 0.85;
  xml::Document doc = xml::RandomDocument(&rng, options);
  const eval::Context ctx = eval::RootContext(doc);
  constexpr Route kPf = Route::kPfFrontier;
  constexpr Route kCore = Route::kCoreLinear;
  constexpr Route kCvt = Route::kCvt;
  const struct {
    const char* text;
    std::vector<Route> routes;
  } cases[] = {
      {"/descendant::t0/descendant::t1/child::t2[position() = last()]"
       "/child::t3",
       {kPf, kCvt, kPf}},
      {"/descendant::t0/descendant::t1/child::t2[count(child::t3) = 1]",
       {kPf, kCvt}},
      // No t9 in the document: the frontier empties after segment one.
      {"/descendant::t9/child::t1[position() = 1]/descendant::t2",
       {kPf, kCvt, kPf}},
      // A uniform PF plan: one segment.
      {"/descendant::t0/child::t1", {kPf}},
      // A Core step and predicate-free steps: one core-linear segment.
      {"/descendant::t0[child::t1]/descendant::t2/child::t3", {kCore}},
      // A union of uniform branches: one entry per branch segment.
      {"/descendant::t0/child::t1 | /descendant::t2[not(child::t3)] | "
       "/child::t1",
       {kPf, kCore, kPf}},
      // A scalar root runs whole on cvt: one entry.
      {"count(/descendant::t1[position() = 2]) + 1", {kCvt}},
  };
  int skipped = 0;
  for (const auto& c : cases) {
    Physical plan = CompileText(c.text);
    std::vector<Route> routes;
    for (const BranchProgram& branch : plan.branches) {
      for (const Segment& segment : branch.segments) {
        routes.push_back(segment.route);
      }
    }
    if (plan.branches.empty()) routes.push_back(Route::kCvt);
    EXPECT_EQ(routes, c.routes) << c.text;
    ExecTrace trace;
    auto actual = Execute(doc, plan, ctx, &trace);
    ASSERT_TRUE(actual.ok()) << c.text << ": " << actual.status().ToString();
    ASSERT_EQ(trace.size(), c.routes.size()) << c.text;
    for (size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].route, c.routes[i]) << c.text << " segment " << i;
      if (trace[i].skipped) {
        EXPECT_EQ(trace[i].seconds, 0.0) << c.text << " segment " << i;
        ++skipped;
      }
    }
    eval::NaiveEvaluator naive;
    auto expected = naive.Evaluate(doc, plan.query, ctx);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_TRUE(expected->Equals(*actual)) << c.text;
  }
  EXPECT_GE(skipped, 1);
}

TEST(ExecTest, EngineReportsTheRouteListAndSameValue) {
  auto doc = xml::ParseDocument("<r><a><b/><b/></a><a><b/></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  eval::Engine engine;
  auto answer = engine.Run(*doc, "/descendant::a/child::b[position() = 2]");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->evaluator, "pf-frontier+cvt");
  EXPECT_EQ(answer->value.nodes(), (NodeSet{3}));
}

// ------------------------------------------------- condition-set route
// A cvt segment answers a Core condition in a boolean position with one bit
// of the linear engine's condition set (cvt_evaluator.hpp). The route must
// answer like the naive oracle, read only the run's own document and query,
// and leave the Core condition's node-keyed table empty.

/// Plans whose cvt segments test Core conditions next to positional terms.
/// Generated documents name tags t0..t3 and labels l0..l2.
const char* const kCoreInCvtQueries[] = {
    "/descendant::t1[child::t0 and position() < 3]",
    "/descendant::*[not(descendant::t1) or last() = 2]/child::t2",
    "/descendant::t0[boolean(child::*) and position() != last()]",
    // An absolute Core path next to a positional term.
    "/descendant::l0[/descendant::t2[child::l1] or position() = 1]",
    // A Core predicate inside a path that cvt evaluates per node.
    "/descendant::t0[count(child::*[child::t1]) = 1]",
    // A Core step between two cvt segments.
    "/descendant::t0[position() = 2]/child::t1[child::l2 or "
    "not(child::t0)]/child::*[last() > 1]",
    // A scalar root.
    "count(/descendant::*[child::t3 and position() mod 2 = 1])",
};

TEST(ConditionSetRouteTest, EngineAgreesWithTheNaiveOracle) {
  std::vector<Physical> plans;
  for (const char* text : kCoreInCvtQueries) plans.push_back(CompileText(text));
  // The Core step between the two cvt steps keeps its own route.
  EXPECT_EQ(plans[5].route_label, "cvt+core-linear+cvt");
  Rng rng(2027);
  eval::NaiveEvaluator naive;
  eval::Engine engine;  // one long-lived engine across every run
  for (const int32_t labels : {0, 2}) {
    xml::RandomDocumentOptions options;
    options.node_count = 70;
    options.max_extra_labels = labels;
    options.label_alphabet = 3;
    for (int round = 0; round < 6; ++round) {
      const xml::Document doc = xml::RandomDocument(&rng, options);
      for (const Physical& plan : plans) {
        auto expected = naive.EvaluateAtRoot(doc, plan.query);
        ASSERT_TRUE(expected.ok()) << plan.canonical_text;
        auto actual = engine.RunPlan(doc, plan);
        ASSERT_TRUE(actual.ok()) << plan.canonical_text << ": "
                                 << actual.status().ToString();
        EXPECT_TRUE(expected->Equals(actual->value))
            << plan.canonical_text << " labels " << labels << "\n  naive: "
            << expected->DebugString()
            << "\n  engine: " << actual->value.DebugString();
      }
    }
  }
}

TEST(ConditionSetRouteTest, OneEngineAcrossPlansDocumentsAndRevisions) {
  // P and Q have one shape, so their expression ids coincide while their
  // conditions differ; S is a scalar root. A condition set left over from
  // another query, another document or an older revision answers wrongly.
  const Physical p =
      CompileText("/descendant::*[child::t0 and position() mod 3 != 0]");
  const Physical q =
      CompileText("/descendant::*[child::t1 and position() mod 3 != 0]");
  const Physical s = CompileText(
      "count(/descendant::*[child::t0 and position() mod 3 != 0])");
  Rng rng(77);
  xml::RandomDocumentOptions options;
  options.node_count = 80;
  options.tag_alphabet = 2;
  xml::Document a = xml::RandomDocument(&rng, options);
  const xml::Document b = xml::RandomDocument(&rng, options);
  eval::Engine engine;
  eval::NaiveEvaluator naive;
  auto expect_oracle = [&](const Physical& plan, const xml::Document& doc,
                           const char* step) {
    auto expected = naive.EvaluateAtRoot(doc, plan.query);
    ASSERT_TRUE(expected.ok());
    auto actual = engine.RunPlan(doc, plan);
    ASSERT_TRUE(actual.ok()) << step << ": " << actual.status().ToString();
    EXPECT_TRUE(expected->Equals(actual->value))
        << step << ": " << plan.canonical_text << "\n  naive: "
        << expected->DebugString()
        << "\n  engine: " << actual->value.DebugString();
  };
  // The scalar and the path plan take turns at meeting a document first, so
  // a run that reads sets bound by an earlier run answers wrongly.
  expect_oracle(p, a, "P on A");
  expect_oracle(q, a, "Q on A");
  expect_oracle(s, a, "S on A");
  expect_oracle(s, b, "S on B");
  expect_oracle(p, b, "P on B");
  // A new revision of A at A's own address: every run binds the engine
  // afresh, so nothing read for an earlier revision answers for this one.
  for (int edit = 0; edit < 4; ++edit) {
    auto revised = xml::ApplyEdit(a, xml::RandomSubtreeEdit(&rng, a));
    ASSERT_TRUE(revised.ok());
    a = std::move(revised).value();
    expect_oracle(edit % 2 == 0 ? p : s, a, "P or S on a new revision of A");
    expect_oracle(edit % 2 == 0 ? s : p, a, "S or P on a new revision of A");
  }
}

TEST(ConditionSetRouteTest, StagedCvtTablesNoCellForTheCoreCondition) {
  // <r> with 40 <a> children, each with a child <b/>.
  std::string xml = "<r>";
  for (int i = 0; i < 40; ++i) xml += "<a><b/></a>";
  xml += "</r>";
  auto doc = xml::ParseDocument(xml);
  ASSERT_TRUE(doc.ok());
  const Physical plan =
      CompileText("/descendant::*[child::* and position() + 1 = last()]");
  ASSERT_EQ(plan.route_label, "cvt");

  eval::CoreLinearEvaluator linear;
  eval::CvtEvaluator cvt;
  auto staged = ExecuteStaged(*doc, plan, eval::RootContext(*doc), &linear,
                              &cvt);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  // 80 candidates; the second to last is the 40th <a>, which has a child.
  EXPECT_EQ(staged->nodes(), (NodeSet{79}));
  // No cell at all: child::* is answered from its condition set, so it has
  // no node-keyed cells, and the arithmetic is a position test, which
  // reads no table, so the constant 1 has none either.
  EXPECT_EQ(cvt.last_table_entries(), 0);

  // The paper's algorithm is unchanged: a standalone engine tables
  // child::* once per candidate node.
  eval::CvtEvaluator standalone;
  auto whole = standalone.Evaluate(*doc, plan.query, eval::RootContext(*doc));
  ASSERT_TRUE(whole.ok());
  EXPECT_TRUE(whole->Equals(*staged));
  EXPECT_GE(standalone.last_table_entries(), doc->size() - 1);
}

// ------------------------------------------------------------- footprints
// The dependency extractor behind mview invalidation (footprint.hpp): name
// tests everywhere in the tree are collected, wildcard/node() tests force
// any_name, and compiled plans carry their footprint.

TEST(FootprintTest, CollectsNamesAcrossStepsPredicatesAndFunctions) {
  Footprint fp = CompileText("//a/child::b[descendant::c]").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a", "b", "c"}));

  fp = CompileText("count(/descendant::x) + count(//y)").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"x", "y"}));

  fp = CompileText("/descendant::a | //b/parent::c").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FootprintTest, UncoveredWildcardAndNodeTestsForceAnyName) {
  // No kName step guards these: they observe nodes regardless of name.
  EXPECT_TRUE(CompileText("/child::*").footprint.any_name);
  EXPECT_TRUE(CompileText("/descendant::node()").footprint.any_name);
  EXPECT_TRUE(CompileText("/child::node()/child::a").footprint.any_name);
  // The // sugar normalizes to descendant::a — no node() test survives.
  EXPECT_FALSE(CompileText("//a").footprint.any_name);
}

TEST(FootprintTest, NameGuardedWildcardAndNodeTestsStayPrecise) {
  // A */node() test downstream of (or inside a predicate of) a kName step
  // is unreachable once that name is absent from both revisions, and any
  // revision containing the name is in the changed set anyway — so the
  // name alone is a sound charge.
  Footprint fp = CompileText("//a[child::node()]").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a"}));

  fp = CompileText("//a/child::*").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a"}));

  // The abbreviated "." (self::node()) in a covered predicate — the
  // idiomatic spelling of the zero-arg string() comparison.
  fp = CompileText("//a[. = 'x']").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a"}));
}

TEST(FootprintTest, RootContentReadsForceAnyName) {
  // The bare "/" denotes the root node: coerced to string/number its value
  // is the document's whole text content, which no name set covers — so it
  // must intersect every update (string(/) would otherwise be served stale
  // across any content change that keeps the tag set).
  EXPECT_TRUE(CompileText("/").footprint.any_name);
  EXPECT_TRUE(CompileText("string(/) = 'x'").footprint.any_name);
  EXPECT_TRUE(CompileText("sum(/)").footprint.any_name);
  // Zero-argument context functions at the top level read the root node too.
  EXPECT_TRUE(CompileText("number()").footprint.any_name);
  EXPECT_TRUE(CompileText("string-length() > 2").footprint.any_name);
}

TEST(FootprintTest, NameCoveredContextKeepsPrecision) {
  // Inside a predicate of a name-tested step the context node already
  // passed that test: if 'a' occurs in neither revision the step is dead
  // and the zero-arg read is unreachable, so the name alone is sound.
  Footprint fp = CompileText("//a[starts-with(name(), 't')]").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a"}));

  fp = CompileText("//a[string-length() > 1]").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"a"}));

  // string() over a named path (not the context) stays precise as well.
  fp = CompileText("string(//b) = 'x'").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_EQ(fp.names, (std::vector<std::string>{"b"}));
}

TEST(FootprintTest, DocumentIndependentQueriesHaveEmptyFootprint) {
  Footprint fp = CompileText("1 + 2").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_TRUE(fp.names.empty());
  // A pure function of the query alone: no changed-name set invalidates it.
  EXPECT_FALSE(fp.Intersects({"a", "b", "r"}));
}

TEST(FootprintTest, IntersectionIsExactOnSortedSets) {
  Footprint fp = CompileText("//a[child::c]").footprint;
  EXPECT_TRUE(fp.Intersects({"b", "c", "d"}));
  EXPECT_FALSE(fp.Intersects({"b", "d", "z"}));
  EXPECT_FALSE(fp.Intersects({}));
  EXPECT_EQ(fp.ToString(), "{a,c}");

  Footprint any = CompileText("/child::*").footprint;
  EXPECT_TRUE(any.Intersects({}));
  EXPECT_EQ(any.ToString(), "any+wild");
}

// ------------------------------------------- delta observation classes
// The flags behind Footprint::AffectedBy's region×name sharpening
// (footprint.hpp header): wildcard selection, content reads, name reads.

TEST(FootprintTest, ObservationClassFlagsAreCollected) {
  // Pure name selection: no observation class set.
  Footprint fp = CompileText("//a/child::b[descendant::c]").footprint;
  EXPECT_FALSE(fp.wildcard);
  EXPECT_FALSE(fp.content_read);
  EXPECT_FALSE(fp.name_read);
  EXPECT_EQ(fp.ToString(), "{a,b,c}");

  // Covered wildcards stay out of any_name but are flagged: they can
  // select region nodes without naming them.
  fp = CompileText("//a/child::*").footprint;
  EXPECT_FALSE(fp.any_name);
  EXPECT_TRUE(fp.wildcard);
  EXPECT_EQ(fp.ToString(), "{a}+wild");

  // "." is self::node(): an upward wildcard never selects region nodes, so
  // the common "[. = 'x']" predicate stays structure-insensitive.
  EXPECT_FALSE(CompileText("//a[. = 'x']").footprint.wildcard);
  EXPECT_FALSE(CompileText("//a/parent::node()").footprint.wildcard);
  EXPECT_TRUE(CompileText("//a/following-sibling::*").footprint.wildcard);

  // Covered content reads: node-set coerced by comparison, function, or
  // arithmetic.
  EXPECT_TRUE(CompileText("//a[. = 'x']").footprint.content_read);
  EXPECT_TRUE(CompileText("string(//b) = 'x'").footprint.content_read);
  EXPECT_TRUE(CompileText("sum(//a)").footprint.content_read);
  EXPECT_TRUE(CompileText("//a[string-length() > 1]").footprint.content_read);
  EXPECT_TRUE(CompileText("count(//a[. = //b])").footprint.content_read);

  // Structural observations are NOT content reads: existence, counting,
  // and positions survive any text edit.
  EXPECT_FALSE(CompileText("//a[child::b]").footprint.content_read);
  EXPECT_FALSE(CompileText("count(//a) > 2").footprint.content_read);
  EXPECT_FALSE(CompileText("//a[position() = 2]").footprint.content_read);

  // name()/local-name() reads are their own class: a relabel can change
  // them without the footprint naming the relabeled node.
  fp = CompileText("//a[starts-with(name(), 't')]").footprint;
  EXPECT_TRUE(fp.name_read);
  EXPECT_FALSE(fp.content_read);
  EXPECT_FALSE(CompileText("//a[. = 'x']").footprint.name_read);
}

TEST(FootprintTest, AffectedByWholeDocumentEqualsIntersects) {
  // Null delta = whole-document replacement: the dead-query argument
  // applies, so wildcard/content/name flags add nothing.
  Footprint fp = CompileText("//a/child::*[. = 'x']").footprint;
  EXPECT_TRUE(fp.wildcard);
  EXPECT_TRUE(fp.content_read);
  EXPECT_TRUE(fp.AffectedBy({"a", "b"}, nullptr));
  EXPECT_FALSE(fp.AffectedBy({"b", "c"}, nullptr));
}

TEST(FootprintTest, AffectedByDeltaGatesObservationClasses) {
  xml::DocumentDelta text_edit;  // SetText: ids stable, content changed
  text_edit.ids_stable = true;
  text_edit.content_changed = true;

  xml::DocumentDelta structural;  // replace: ids shift, names spliced
  structural.ids_stable = false;
  structural.content_changed = true;
  structural.old_names = {"u"};
  structural.new_names = {"v"};

  xml::DocumentDelta relabel;  // tag change only
  relabel.ids_stable = true;
  relabel.content_changed = false;
  relabel.old_names = {"u"};
  relabel.new_names = {"v"};

  // Pure name selection: only the region's names matter. A text edit and
  // even a structural splice of foreign-named nodes leave it unaffected —
  // the region×name precision the delta pipeline buys (the structural case
  // relies on the cache remapping ids).
  Footprint names_only = CompileText("//a/child::b").footprint;
  EXPECT_FALSE(names_only.AffectedBy({}, &text_edit));
  EXPECT_FALSE(names_only.AffectedBy({"u", "v"}, &structural));
  EXPECT_TRUE(names_only.AffectedBy({"b", "u"}, &structural));

  // Content readers: affected exactly when the region's text changed.
  Footprint content = CompileText("//a[. = 'x']").footprint;
  EXPECT_TRUE(content.AffectedBy({}, &text_edit));
  EXPECT_FALSE(content.AffectedBy({"u", "v"}, &relabel));

  // Wildcards: affected exactly when structure changed.
  Footprint wild = CompileText("//a/child::*").footprint;
  EXPECT_TRUE(wild.AffectedBy({"u", "v"}, &structural));
  EXPECT_FALSE(wild.AffectedBy({}, &text_edit));

  // Name readers: affected whenever any name changed, even ids-stable.
  Footprint reader = CompileText("//a[name() = 'x']").footprint;
  EXPECT_TRUE(reader.AffectedBy({"u", "v"}, &relabel));
  EXPECT_FALSE(reader.AffectedBy({}, &text_edit));
}

}  // namespace
}  // namespace gkx::plan
