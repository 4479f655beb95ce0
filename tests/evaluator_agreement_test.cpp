// Differential property tests: for random documents × random queries per
// fragment, every engine that accepts the query must return identical
// results. The naive engine is the spec oracle; core-linear and the NAuxPDA
// engine are fully independent implementations, so agreement across all of
// them is strong evidence that each algorithm implements the same XPath
// semantics at its own complexity (the paper's central premise).

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/parallel_evaluator.hpp"
#include "eval/pda_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "plan/physical.hpp"
#include "testkit/workload.hpp"
#include "xml/generator.hpp"
#include "xpath/fragment.hpp"
#include "xpath/generator.hpp"
#include "xpath/printer.hpp"
#include "xpath/transform.hpp"

namespace gkx::eval {
namespace {

using xml::Document;
using xpath::Fragment;
using xpath::Query;

struct AgreementCase {
  Fragment fragment;
  uint64_t seed;
  int queries;
  int doc_nodes = 40;
  int condition_depth = 2;
};

void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << FragmentName(c.fragment) << "/seed" << c.seed;
}

class AgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(AgreementTest, AllEnginesAgreeOnRandomWorkloads) {
  const AgreementCase& param = GetParam();
  Rng rng(param.seed);

  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = param.doc_nodes;
  doc_options.tag_alphabet = 4;
  doc_options.text_probability = 0.4;

  xpath::RandomQueryOptions query_options;
  query_options.fragment = param.fragment;
  query_options.max_predicates_per_step = 2;
  query_options.max_condition_depth = param.condition_depth;

  NaiveEvaluator naive;
  CvtEvaluator cvt_lazy;
  CvtEvaluator cvt_eager{CvtEvaluator::Options{.eager = true}};
  CoreLinearEvaluator linear;
  PdaEvaluator pda{PdaEvaluator::Options{.max_not_depth = 6}};
  ParallelPdaEvaluator parallel{
      ParallelPdaEvaluator::Options{.threads = 4, .pda = {.max_not_depth = 6}}};

  int linear_answers = 0;
  int pda_answers = 0;
  for (int i = 0; i < param.queries; ++i) {
    Document doc = xml::RandomDocument(&rng, doc_options);
    Query query = xpath::RandomQuery(&rng, query_options);
    const std::string text = ToXPathString(query);

    auto expected = naive.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(expected.ok()) << text << ": " << expected.status().ToString();

    for (Evaluator* engine :
         std::initializer_list<Evaluator*>{&cvt_lazy, &cvt_eager, &linear, &pda,
                                           &parallel}) {
      auto actual = engine->EvaluateAtRoot(doc, query);
      if (!actual.ok()) {
        ASSERT_EQ(actual.status().code(), StatusCode::kUnsupported)
            << engine->name() << " on " << text << ": "
            << actual.status().ToString();
        continue;
      }
      if (engine == &linear) ++linear_answers;
      if (engine == &pda) ++pda_answers;
      EXPECT_TRUE(expected->Equals(*actual))
          << engine->name() << " disagrees on " << text << "\n  naive: "
          << expected->DebugString() << "\n  " << engine->name() << ": "
          << actual->DebugString();
    }

    // Transform soundness rides along: normalization and negation pushdown
    // must preserve semantics (checked with the CVT engine).
    for (const Query& variant :
         {xpath::NormalizeIteratedPredicates(query), xpath::PushNegationsDown(query)}) {
      auto transformed = cvt_lazy.EvaluateAtRoot(doc, variant);
      ASSERT_TRUE(transformed.ok())
          << ToXPathString(variant) << ": " << transformed.status().ToString();
      EXPECT_TRUE(expected->Equals(*transformed))
          << "transform changed semantics of " << text << " => "
          << ToXPathString(variant);
    }
  }

  // The specialized engines must actually engage on their home fragments.
  if (param.fragment == Fragment::kPF ||
      param.fragment == Fragment::kPositiveCore ||
      param.fragment == Fragment::kCore) {
    EXPECT_GT(linear_answers, 0);
  }
  if (param.fragment == Fragment::kPF ||
      param.fragment == Fragment::kPositiveCore ||
      param.fragment == Fragment::kPWF) {
    EXPECT_GT(pda_answers, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fragments, AgreementTest,
    ::testing::Values(AgreementCase{Fragment::kPF, 1001, 60},
                      AgreementCase{Fragment::kPF, 1002, 60},
                      AgreementCase{Fragment::kPositiveCore, 2001, 50},
                      AgreementCase{Fragment::kPositiveCore, 2002, 50},
                      AgreementCase{Fragment::kCore, 3001, 50},
                      AgreementCase{Fragment::kCore, 3002, 50},
                      AgreementCase{Fragment::kPWF, 4001, 50},
                      AgreementCase{Fragment::kPWF, 4002, 50},
                      AgreementCase{Fragment::kWF, 5001, 40},
                      AgreementCase{Fragment::kPXPath, 6001, 40},
                      AgreementCase{Fragment::kFullXPath, 7001, 40},
                      AgreementCase{Fragment::kFullXPath, 7002, 40},
                      // Larger documents and deeper condition nesting.
                      AgreementCase{Fragment::kCore, 8001, 25, 150, 3},
                      AgreementCase{Fragment::kPWF, 8002, 25, 150, 3},
                      AgreementCase{Fragment::kPXPath, 8003, 20, 120, 3},
                      AgreementCase{Fragment::kFullXPath, 8004, 15, 120, 3}));

// Deep documents exercise the chain-heavy code paths (ancestor walks,
// preceding scans) differently — a separate sweep with chain bias.
class DeepDocAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeepDocAgreementTest, AgreementOnDeepDocuments) {
  Rng rng(GetParam());
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 50;
  doc_options.chain_bias = 0.85;

  xpath::RandomQueryOptions query_options;
  query_options.fragment = Fragment::kCore;
  query_options.max_path_steps = 4;

  NaiveEvaluator naive;
  CvtEvaluator cvt;
  CoreLinearEvaluator linear;
  for (int i = 0; i < 40; ++i) {
    Document doc = xml::RandomDocument(&rng, doc_options);
    Query query = xpath::RandomQuery(&rng, query_options);
    auto expected = naive.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(expected.ok());
    auto from_cvt = cvt.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(from_cvt.ok());
    EXPECT_TRUE(expected->Equals(*from_cvt)) << ToXPathString(query);
    auto from_linear = linear.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(from_linear.ok()) << from_linear.status().ToString();
    EXPECT_TRUE(expected->Equals(*from_linear)) << ToXPathString(query);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepDocAgreementTest,
                         ::testing::Values(11, 22, 33, 44));

// Non-root contexts: all engines must respect the initial context node.
TEST(AgreementTest, NonRootContexts) {
  Rng rng(99);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 30;
  Document doc = xml::RandomDocument(&rng, doc_options);

  xpath::RandomQueryOptions query_options;
  query_options.fragment = Fragment::kPositiveCore;
  query_options.absolute_probability = 0.0;  // relative paths only

  NaiveEvaluator naive;
  CvtEvaluator cvt;
  PdaEvaluator pda;
  for (int i = 0; i < 25; ++i) {
    Query query = xpath::RandomQuery(&rng, query_options);
    const xml::NodeId start =
        static_cast<xml::NodeId>(rng.UniformInt(0, doc.size() - 1));
    const Context ctx{start, 1, 1};
    auto expected = naive.Evaluate(doc, query, ctx);
    ASSERT_TRUE(expected.ok());
    auto from_cvt = cvt.Evaluate(doc, query, ctx);
    ASSERT_TRUE(from_cvt.ok());
    EXPECT_TRUE(expected->Equals(*from_cvt))
        << ToXPathString(query) << " from " << start;
    auto from_pda = pda.Evaluate(doc, query, ctx);
    if (from_pda.ok()) {
      EXPECT_TRUE(expected->Equals(*from_pda))
          << ToXPathString(query) << " from " << start;
    }
  }
}

// Every plan shape through the one executor: generated queries of every
// fragment — uniform PF and Core plans, hybrids whose subexpressions route
// to different engines, unions and scalar roots — must answer
// byte-identically to the naive oracle. This is the differential check for
// the segment pipeline and its seams (plan::ExecuteStaged).
TEST(StagedPlanAgreementTest, HybridPlansMatchTheNaiveOracle) {
  Rng rng(9001);
  xml::RandomDocumentOptions doc_options;
  doc_options.node_count = 50;
  doc_options.tag_alphabet = 3;
  doc_options.text_probability = 0.4;

  NaiveEvaluator naive;
  Engine engine;
  int hybrids_seen = 0;
  for (Fragment fragment :
       {Fragment::kPF, Fragment::kCore, Fragment::kPWF, Fragment::kWF,
        Fragment::kPXPath, Fragment::kFullXPath}) {
    xpath::RandomQueryOptions query_options;
    query_options.fragment = fragment;
    query_options.max_predicates_per_step = 2;
    for (int i = 0; i < 60; ++i) {
      Document doc = xml::RandomDocument(&rng, doc_options);
      Query query = xpath::RandomQuery(&rng, query_options);
      // The plan normalizes the query; compare against the oracle on the
      // plan's own AST so the check isolates plan execution (Optimize
      // soundness is the metamorphic suite's job).
      Engine::Plan plan = Engine::CompileParsed(std::move(query));
      auto expected = naive.EvaluateAtRoot(doc, plan.query);
      ASSERT_TRUE(expected.ok()) << plan.canonical_text;
      auto answer = engine.RunPlan(doc, plan);
      ASSERT_TRUE(answer.ok())
          << plan.canonical_text << ": " << answer.status().ToString();
      EXPECT_TRUE(expected->Equals(answer->value))
          << answer->evaluator << " disagrees on " << plan.canonical_text
          << "\n  naive:  " << expected->DebugString()
          << "\n  staged: " << answer->value.DebugString();
      // A plan that uses more than one route reports the route list.
      std::set<plan::Route> routes;
      for (const plan::BranchProgram& branch : plan.branches) {
        for (const plan::Segment& segment : branch.segments) {
          routes.insert(segment.route);
        }
      }
      if (routes.size() > 1) {
        ++hybrids_seen;
        EXPECT_NE(answer->evaluator.find('+'), std::string::npos)
            << "multi-route plans must report a route list: "
            << answer->evaluator;
      }
    }
  }
  // The generators produce plenty of PF-spine + positional-predicate
  // shapes; if this drops to zero the lowering stopped mixing routes.
  EXPECT_GT(hybrids_seen, 20);
}

// Settled work is skipped, never answered differently: an absolute
// condition is one constant per run (all nodes or none), a sweep ends at
// the first empty axis image or origin target before any later condition
// set is built, and a position test runs on doubles outside the Value
// interpreter. Each query must answer like the naive oracle through the
// executor (Engine::RunPlan) and through standalone CvtEvaluators in both
// modes, on random documents with and without extra labels.
void ExpectSettledWorkAgrees(const std::vector<std::string>& texts,
                             uint64_t seed) {
  Rng rng(seed);
  NaiveEvaluator naive;
  Engine engine;
  CvtEvaluator cvt_lazy;
  CvtEvaluator cvt_eager{CvtEvaluator::Options{.eager = true}};
  for (const int32_t labels : {0, 2}) {
    xml::RandomDocumentOptions doc_options;
    doc_options.node_count = 60;
    doc_options.tag_alphabet = 3;
    doc_options.max_extra_labels = labels;
    doc_options.label_alphabet = 3;
    for (int round = 0; round < 4; ++round) {
      const Document doc = xml::RandomDocument(&rng, doc_options);
      for (const std::string& text : texts) {
        const Query query = xpath::MustParse(text);
        auto expected = naive.EvaluateAtRoot(doc, query);
        ASSERT_TRUE(expected.ok()) << text;
        for (CvtEvaluator* cvt : {&cvt_lazy, &cvt_eager}) {
          auto actual = cvt->EvaluateAtRoot(doc, query);
          ASSERT_TRUE(actual.ok()) << text << ": " << actual.status().ToString();
          EXPECT_TRUE(expected->Equals(*actual))
              << cvt->name() << " disagrees on " << text << " (labels "
              << labels << ")\n  naive: " << expected->DebugString()
              << "\n  cvt:   " << actual->DebugString();
        }
        Engine::Plan plan = Engine::CompileParsed(xpath::MustParse(text));
        auto planned = naive.EvaluateAtRoot(doc, plan.query);
        ASSERT_TRUE(planned.ok()) << plan.canonical_text;
        auto answer = engine.RunPlan(doc, plan);
        ASSERT_TRUE(answer.ok())
            << plan.canonical_text << ": " << answer.status().ToString();
        EXPECT_TRUE(planned->Equals(answer->value))
            << answer->evaluator << " disagrees on " << plan.canonical_text
            << " (labels " << labels << ")\n  naive:  "
            << planned->DebugString()
            << "\n  staged: " << answer->value.DebugString();
      }
    }
  }
}

TEST(SettledWorkAgreementTest, AbsoluteConditions) {
  ExpectSettledWorkAgrees(
      {
          // Empty from the root ...
          "descendant::t1[/following::*]",
          "descendant::*[not(/parent::*)]",
          "child::*[/preceding-sibling::t1 or child::t2]",
          "descendant::t2[child::* and not(/following::*)]",
          "descendant::*[/ancestor::* or /following-sibling::*[child::t1]]",
          // ... and not.
          "descendant::t0[/descendant::t1]",
          "descendant::*[/self::t0 and child::t1]",
          "descendant::*[not(/descendant::t1) or /self::t0]",
          "descendant::l1[/descendant::l2 and not(/following::*)]",
          "descendant::*[/ | child::t1]",
          // Nested inside relative condition paths.
          "descendant::*[child::t1[/following::*] or child::t2[/descendant::t1]]",
          "descendant::t1[ancestor::*[not(/parent::*)]/child::t2]",
          "descendant::*[child::*[not(/self::t0) or /descendant::t2[child::*]]]",
          // In a cvt step, and at a scalar root.
          "descendant::*[/descendant::t1 and position() > 2]",
          "descendant::*[not(/following::*) or last() = position()]",
          "boolean(/parent::* or /descendant::t2)",
      },
      24001);
}

TEST(SettledWorkAgreementTest, StepsAfterAnEmptyAxisImage) {
  ExpectSettledWorkAgrees(
      {
          "parent::*[child::t1]",
          "following::*[child::*]",
          "preceding-sibling::*[child::t2]/child::*[child::t1]",
          "child::t1/parent::*/parent::*[child::t2]",
          "/ancestor::*[child::t1] | descendant::t2",
          "descendant::t9[child::t1]/child::*[child::t2]",
          "descendant::*[parent::*/parent::*/parent::*[child::t2]]",
          "descendant::*[child::t9[child::t1] or following::*[child::*]]",
          "descendant::*[not(preceding::t2/parent::*[child::t1])]",
          "descendant::*[child::t1/following-sibling::*[child::t2]/child::t0]",
          "child::t1/parent::*/parent::*[position() = last()]",
      },
      24002);
}

TEST(SettledWorkAgreementTest, PositionTestsInEverySlot) {
  ExpectSettledWorkAgrees(
      {
          // A number predicate is a position test.
          "descendant::*[last() - 1]",
          "descendant::*[2 + 1]",
          "descendant::*[position() div 2]",
          // Division and modulo by zero give NaN and ±Infinity: = on NaN
          // is false, != true.
          "descendant::*[position() mod 0 = 1]",
          "descendant::*[position() mod 0 != 1]",
          "descendant::*[position() div 0 = 1 div 0]",
          "descendant::*[-position() div 0 < 0]",
          "descendant::*[0 div 0 != 0 div 0]",
          // Unary minus and not().
          "descendant::*[-position() < -2]",
          "descendant::*[- -last() = position() + 1]",
          "descendant::*[not(position() = 1)]",
          "descendant::*[not(position() - 2)]",
          "descendant::*[boolean(position() - 1)]",
          "descendant::*[true() and not(false() or position() > last() - 2)]",
          // And/or of a Core path with a position test, in both orders.
          "descendant::t0[child::* and position() > 1]",
          "descendant::t0[position() > 1 and child::*]",
          "descendant::*[child::t1 or last() - position() < 2]",
          "descendant::*[last() - position() < 2 or child::t1]",
          "descendant::*[child::l1 and position() mod 2 = 0]",
          // The served pool's shapes, iterated predicates, scalar roots.
          "child::*/descendant-or-self::t2[last() - 3 + last() > "
          "position() + position() + position()]",
          "descendant::*[position() > 1][position() mod 2 = 1][1]",
          "descendant::*[(position() + 1) = last()]",
          "count(descendant::*[position() > 2])",
          "position() + 1 = last()",
      },
      24003);
}

// A staged cvt step maps its whole frontier at once (CvtEvaluator::
// StepImage): position-free leading predicates filter the union of all
// origins' candidates, and from the first position-dependent predicate on
// each origin's candidate list is filtered column by column. A leading
// bitset step makes the frontier many nested origins that share siblings;
// every positional shape on every axis must answer like the naive oracle,
// and fail exactly where it fails, with its status code.
TEST(SetAtATimeStepAgreementTest, PositionalStepsFromManyOrigins) {
  const char* const kAxes[] = {
      "self",      "child",        "parent",     "descendant",
      "descendant-or-self",        "ancestor",   "ancestor-or-self",
      "following", "following-sibling",          "preceding",
      "preceding-sibling",
  };
  const char* const kPredicates[] = {
      "[2]",
      "[last()]",
      "[position() mod 2 = 0]",
      "[last() - 1]",
      // A position-free non-Core predicate before a positional one.
      "[count(child::*) >= 1][position() < 3]",
      "[starts-with(name(), 't')][last() > 1]",
      // A number-typed node predicate, compared with position().
      "[count(child::*)]",
      // Mixed connectives: Core operands, position tests, negation.
      "[child::t0 or position() = 1]",
      "[not(child::*) and last() > 2]",
      "[not(position() = 1 or descendant::t2)]",
      // The erroring operand is never reached ...
      "[position() > last() and count(1 + 1) = 0]",
      // ... and here it is, at every first candidate.
      "[position() = 1 and count(1 + 1) = 0]",
  };
  const char* const kLeads[] = {"/descendant::t1/", "descendant::*/"};
  std::vector<Engine::Plan> plans;
  for (const char* lead : kLeads) {
    for (const char* axis : kAxes) {
      for (const char* predicate : kPredicates) {
        for (const char* test : {"*", "t2"}) {
          auto plan = Engine::Compile(std::string(lead) + axis + "::" + test +
                                      predicate);
          ASSERT_TRUE(plan.ok()) << plan.status().ToString();
          plans.push_back(std::move(plan).value());
        }
      }
    }
  }
  Rng rng(28001);
  NaiveEvaluator naive;
  Engine engine;
  int failures = 0;
  int cvt_plans = 0;
  for (const int32_t labels : {0, 2}) {
    xml::RandomDocumentOptions doc_options;
    doc_options.node_count = 320;
    doc_options.tag_alphabet = 3;
    doc_options.max_extra_labels = labels;
    doc_options.label_alphabet = 3;
    const Document doc = xml::RandomDocument(&rng, doc_options);
    for (const Engine::Plan& plan : plans) {
      if (plan.route_label.find("cvt") != std::string::npos) ++cvt_plans;
      auto expected = naive.EvaluateAtRoot(doc, plan.query);
      auto answer = engine.RunPlan(doc, plan);
      if (!expected.ok()) {
        ++failures;
        ASSERT_FALSE(answer.ok())
            << plan.canonical_text << " answers where the oracle fails with "
            << expected.status().ToString();
        EXPECT_EQ(answer.status().code(), expected.status().code())
            << plan.canonical_text;
        continue;
      }
      ASSERT_TRUE(answer.ok())
          << plan.canonical_text << ": " << answer.status().ToString();
      EXPECT_TRUE(expected->Equals(answer->value))
          << answer->evaluator << " disagrees on " << plan.canonical_text
          << " (labels " << labels << ")\n  naive:  "
          << expected->DebugString()
          << "\n  staged: " << answer->value.DebugString();
    }
  }
  // Every plan runs a cvt step, and the reached error fires on most axes.
  EXPECT_EQ(cvt_plans, static_cast<int>(2 * plans.size()));
  EXPECT_GE(failures, 2 * 2 * 8);
}

// Generated WF queries (Def 2.6: position arithmetic over Core-shaped
// paths) exercise the position-test route in arbitrary mixes.
TEST(SettledWorkAgreementTest, RandomWadlerFragmentQueries) {
  Rng rng(24004);
  xpath::RandomQueryOptions query_options;
  query_options.fragment = Fragment::kWF;
  query_options.max_predicates_per_step = 2;
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) {
    texts.push_back(ToXPathString(xpath::RandomQuery(&rng, query_options)));
  }
  ExpectSettledWorkAgrees(texts, 24005);
}

// The CVT evaluator must do polynomially bounded work: on the nested
// condition family the naive engine's evaluation count explodes while the
// CVT count stays flat — the paper's headline contrast, as a unit test.
TEST(ComplexityContrastTest, CvtMemoizationBoundsWork) {
  // A chain keeps the nested conditions satisfiable at every level, so the
  // naive engine cannot short-circuit its way out of the blow-up.
  Document doc = xml::ChainDocument(20, /*tag_alphabet=*/1);
  NaiveEvaluator naive;
  CvtEvaluator cvt;

  Query shallow = xpath::NestedConditionQuery(3, 2);
  Query deep = xpath::NestedConditionQuery(7, 2);

  ASSERT_TRUE(naive.EvaluateAtRoot(doc, shallow).ok());
  const int64_t naive_shallow = naive.last_eval_count();
  ASSERT_TRUE(naive.EvaluateAtRoot(doc, deep).ok());
  const int64_t naive_deep = naive.last_eval_count();

  ASSERT_TRUE(cvt.EvaluateAtRoot(doc, shallow).ok());
  const int64_t cvt_shallow = cvt.last_eval_count();
  ASSERT_TRUE(cvt.EvaluateAtRoot(doc, deep).ok());
  const int64_t cvt_deep = cvt.last_eval_count();

  // Naive work explodes with depth; CVT work grows ~linearly with |Q|.
  EXPECT_GT(naive_deep, naive_shallow * 8);
  EXPECT_LT(cvt_deep, cvt_shallow * 32);
  EXPECT_LT(cvt_deep, naive_deep / 8);
}

// The same contrast when every level mixes a path with position arithmetic:
//   depth 0: descendant::t0
//   depth k: descendant::t0[position() + 1 != last() and <depth k-1>]
// Each conjunction depends on the position, so it is recomputed at every
// candidate and never tabled; its position arithmetic is a position test,
// one evaluation on doubles per conjunction, and its path operand is
// tabled per node, which keeps the cvt count polynomial in the depth.
TEST(ComplexityContrastTest, PositionArithmeticUnderPathsStaysPolynomial) {
  Document doc = xml::ChainDocument(20, /*tag_alphabet=*/1);
  auto query_of_depth = [](int depth) {
    std::string text = "descendant::t0";
    for (int level = 0; level < depth; ++level) {
      text = "descendant::t0[position() + 1 != last() and " + text + "]";
    }
    return xpath::MustParse(text);
  };
  NaiveEvaluator naive;
  CvtEvaluator cvt;
  std::vector<int64_t> naive_counts;
  std::vector<int64_t> cvt_counts;
  for (int depth = 1; depth <= 5; ++depth) {
    const Query query = query_of_depth(depth);
    auto expected = naive.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(expected.ok());
    auto actual = cvt.EvaluateAtRoot(doc, query);
    ASSERT_TRUE(actual.ok());
    EXPECT_TRUE(expected->Equals(*actual)) << depth;
    // Every level stays satisfiable on the chain.
    EXPECT_FALSE(actual->nodes().empty()) << depth;
    naive_counts.push_back(naive.last_eval_count());
    cvt_counts.push_back(cvt.last_eval_count());
  }
  // Depths 1..5 read 133, 1,306, 7,834, 33,334 and 107,590 naive
  // evaluations, and 57, 414, 734, 1,019 and 1,271 cvt evaluations:
  // cvt stays within depth × its depth-2 count.
  EXPECT_GT(naive_counts[4], naive_counts[1] * 8);
  for (size_t depth = 2; depth <= 5; ++depth) {
    EXPECT_LE(cvt_counts[depth - 1],
              cvt_counts[1] * static_cast<int64_t>(depth))
        << depth;
  }
  EXPECT_LT(cvt_counts[4], naive_counts[4] / 8);
}

// The 96-query pool of the served benchmark, drawn the way wirebench draws
// it (testkit::CompileWorkload at pool seed 1, default fragment mix, one
// one-node document), on a few small random documents: the served executor
// (Engine::RunPlan) and both cvt modes must answer like the naive oracle.
TEST(ServedPoolAgreementTest, ExecutorAndBothCvtModesMatchTheNaiveOracle) {
  testkit::WorkloadSpec pool_spec;
  pool_spec.seed = 1;
  pool_spec.operations = 1;
  pool_spec.documents = 1;
  pool_spec.min_document_nodes = pool_spec.max_document_nodes = 1;
  pool_spec.queries = 96;
  pool_spec.churn_probability = 0.0;
  auto pool = testkit::CompileWorkload(pool_spec);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool->queries.size(), 96u);

  std::vector<Engine::Plan> plans;
  for (const std::string& text : pool->queries) {
    auto plan = Engine::Compile(text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    plans.push_back(std::move(plan).value());
  }
  Rng rng(2003);
  xml::RandomDocumentOptions doc_options = pool_spec.document_options;
  NaiveEvaluator naive;
  CvtEvaluator lazy;
  CvtEvaluator eager{CvtEvaluator::Options{.eager = true}};
  Engine engine;
  for (const int32_t nodes : {40, 90, 160}) {
    doc_options.node_count = nodes;
    const Document doc = xml::RandomDocument(&rng, doc_options);
    for (const Engine::Plan& plan : plans) {
      auto expected = naive.EvaluateAtRoot(doc, plan.query);
      ASSERT_TRUE(expected.ok()) << plan.canonical_text;
      auto served = engine.RunPlan(doc, plan);
      ASSERT_TRUE(served.ok()) << plan.canonical_text;
      EXPECT_TRUE(expected->Equals(served->value))
          << served->evaluator << " disagrees on " << plan.canonical_text
          << " at |D| " << nodes;
      for (CvtEvaluator* cvt : {&lazy, &eager}) {
        auto actual = cvt->EvaluateAtRoot(doc, plan.query);
        ASSERT_TRUE(actual.ok()) << plan.canonical_text;
        EXPECT_TRUE(expected->Equals(*actual))
            << cvt->name() << " disagrees on " << plan.canonical_text
            << " at |D| " << nodes;
      }
    }
  }
}

}  // namespace
}  // namespace gkx::eval
