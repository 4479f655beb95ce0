// Differential property tests: for random documents × random queries per
// fragment, every engine that accepts the query must return identical
// results. The naive engine is the spec oracle; core-linear and the NAuxPDA
// engine are fully independent implementations, so agreement across all of
// them is strong evidence that each algorithm implements the same XPath
// semantics at its own complexity (the paper's central premise).

#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/engine.hpp"
#include "eval/parallel_evaluator.hpp"
#include "eval/pda_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "plan/physical.hpp"
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
// the segment pipeline and its materialization boundaries
// (plan::ExecuteStaged).
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

}  // namespace
}  // namespace gkx::eval
