// Theorem 3.2 / Corollary 3.3 property tests: for randomized monotone
// circuits and assignments, the reduction's Core XPath query selects a
// non-empty node set iff the circuit evaluates to true. Structural
// invariants of the construction (document depth 2, axis census, linear
// query size, fragment membership) are asserted as well.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "reductions/circuit_to_core_xpath.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"
#include "xpath/analysis.hpp"
#include "xpath/fragment.hpp"
#include "xpath/parser.hpp"
#include "xpath/printer.hpp"

namespace gkx::reductions {
namespace {

using circuits::AllAssignments;
using circuits::CarryCircuit;
using circuits::Circuit;
using circuits::RandomMonotone;
using circuits::RandomMonotoneOptions;
using eval::CoreLinearEvaluator;
using eval::CvtEvaluator;

bool ReductionAnswer(const CircuitReduction& instance) {
  CoreLinearEvaluator linear;
  auto nodes = linear.EvaluateNodeSet(instance.doc, instance.query);
  EXPECT_TRUE(nodes.ok()) << nodes.status().ToString();
  // Cross-check with the CVT engine.
  CvtEvaluator cvt;
  auto cvt_nodes = cvt.EvaluateNodeSet(instance.doc, instance.query);
  EXPECT_TRUE(cvt_nodes.ok());
  EXPECT_EQ(*nodes, *cvt_nodes);
  return !nodes->empty();
}

TEST(CircuitReductionTest, TinyAndGate) {
  Circuit circuit;
  int32_t a = circuit.AddInput();
  int32_t b = circuit.AddInput();
  circuit.AddAnd({a, b});
  for (const auto& assignment : AllAssignments(2)) {
    CircuitReduction instance = CircuitToCoreXPath(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment));
  }
}

TEST(CircuitReductionTest, TinyOrGate) {
  Circuit circuit;
  int32_t a = circuit.AddInput();
  int32_t b = circuit.AddInput();
  circuit.AddOr({a, b});
  for (const auto& assignment : AllAssignments(2)) {
    CircuitReduction instance = CircuitToCoreXPath(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment));
  }
}

TEST(CircuitReductionTest, CarryBitCircuitAllAssignments) {
  // The paper's own Figure 2 example, exhaustively.
  Circuit circuit = CarryCircuit(2);
  for (const auto& assignment : AllAssignments(4)) {
    CircuitReduction instance = CircuitToCoreXPath(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment))
        << "assignment index mismatch";
  }
}

TEST(CircuitReductionTest, DocumentShapeMatchesPaper) {
  Circuit circuit = CarryCircuit(2);  // M=4, N=5
  CircuitReduction instance = CircuitToCoreXPath(
      circuit, std::vector<bool>{true, false, true, true});
  const xml::DocumentStats stats = instance.doc.Stats();
  // v0 + 9 children + 9 grandchildren.
  EXPECT_EQ(stats.node_count, 1 + 9 + 9);
  EXPECT_EQ(stats.max_depth, 2);
  EXPECT_EQ(stats.max_fanout, 9);
  // v(M+N) carries R; inputs carry T0/T1.
  EXPECT_TRUE(instance.doc.NodeHasName(instance.doc.Children(0).back(), "R"));
}

TEST(CircuitReductionTest, QueryIsCoreXPathAndLinearSize) {
  RandomMonotoneOptions options;
  options.num_inputs = 4;
  Rng rng(17);
  int previous_size = 0;
  for (int32_t gates : {4, 8, 16, 32}) {
    options.num_gates = gates;
    Circuit circuit = RandomMonotone(&rng, options);
    CircuitReduction instance =
        CircuitToCoreXPath(circuit, {true, false, true, false});
    xpath::FragmentReport report = xpath::Classify(instance.query);
    EXPECT_TRUE(report.in_core);
    EXPECT_FALSE(report.in_positive_core);  // uses not()
    const int size = instance.query.size();
    if (previous_size > 0) {
      // Linear growth: doubling the gates should roughly double |Q|.
      EXPECT_LT(size, previous_size * 3);
      EXPECT_GT(size, previous_size);
    }
    previous_size = size;
  }
}

TEST(CircuitReductionTest, AxisCensusDefault) {
  Circuit circuit = CarryCircuit(2);
  CircuitReduction instance =
      CircuitToCoreXPath(circuit, {false, false, false, false});
  const xpath::QueryAnalysis& analysis = instance.query.analysis();
  using xpath::Axis;
  EXPECT_TRUE(analysis.axes_used[static_cast<size_t>(Axis::kDescendantOrSelf)]);
  EXPECT_TRUE(analysis.axes_used[static_cast<size_t>(Axis::kAncestorOrSelf)]);
  EXPECT_TRUE(analysis.axes_used[static_cast<size_t>(Axis::kChild)]);
  EXPECT_TRUE(analysis.axes_used[static_cast<size_t>(Axis::kParent)]);
  EXPECT_TRUE(analysis.axes_used[static_cast<size_t>(Axis::kSelf)]);  // T(l)
  EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(Axis::kFollowing)]);
  EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(Axis::kDescendant)]);
}

TEST(CircuitReductionTest, Corollary33AxisSet) {
  // Only child, parent, descendant-or-self (plus self for the label tests).
  Circuit circuit = CarryCircuit(2);
  CircuitReductionOptions options;
  options.corollary33_axes = true;
  CircuitReduction instance =
      CircuitToCoreXPath(circuit, {true, true, false, true}, options);
  const xpath::QueryAnalysis& analysis = instance.query.analysis();
  using xpath::Axis;
  EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(Axis::kAncestorOrSelf)]);
  EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(Axis::kAncestor)]);
  for (int a = 0; a < xpath::kNumAxes; ++a) {
    Axis axis = static_cast<Axis>(a);
    if (axis == Axis::kChild || axis == Axis::kParent ||
        axis == Axis::kDescendantOrSelf || axis == Axis::kSelf) {
      continue;
    }
    EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(axis)])
        << xpath::AxisName(axis);
  }
}

struct RandomCaseParam {
  uint64_t seed;
  int32_t num_inputs;
  int32_t num_gates;
  bool corollary33;
};

class CircuitReductionPropertyTest
    : public ::testing::TestWithParam<RandomCaseParam> {};

TEST_P(CircuitReductionPropertyTest, AgreesWithDirectEvaluation) {
  const RandomCaseParam& param = GetParam();
  Rng rng(param.seed);
  RandomMonotoneOptions options;
  options.num_inputs = param.num_inputs;
  options.num_gates = param.num_gates;
  CircuitReductionOptions reduction_options;
  reduction_options.corollary33_axes = param.corollary33;

  for (int trial = 0; trial < 6; ++trial) {
    Circuit circuit = RandomMonotone(&rng, options);
    for (int a = 0; a < 4; ++a) {
      std::vector<bool> assignment;
      for (int32_t i = 0; i < param.num_inputs; ++i) {
        assignment.push_back(rng.Bernoulli(0.5));
      }
      CircuitReduction instance =
          CircuitToCoreXPath(circuit, assignment, reduction_options);
      EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment))
          << "seed=" << param.seed << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CircuitReductionPropertyTest,
    ::testing::Values(RandomCaseParam{1, 3, 5, false},
                      RandomCaseParam{2, 4, 10, false},
                      RandomCaseParam{3, 5, 20, false},
                      RandomCaseParam{4, 6, 40, false},
                      RandomCaseParam{5, 3, 5, true},
                      RandomCaseParam{6, 4, 12, true},
                      RandomCaseParam{7, 6, 30, true}));

TEST(CircuitReductionTest, SurfaceSyntaxAndXmlRoundTrip) {
  // End-to-end integration: the generated query prints as genuine XPath
  // surface syntax and the document serializes as genuine XML (labels via
  // the labels="..." convention); after re-parsing both, the answer is
  // unchanged. This is what makes the reduction portable to any engine.
  Circuit circuit = CarryCircuit(2);
  Rng rng(73);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<bool> assignment;
    for (int i = 0; i < 4; ++i) assignment.push_back(rng.Bernoulli(0.5));
    CircuitReduction instance = CircuitToCoreXPath(circuit, assignment);

    const std::string query_text = xpath::ToXPathString(instance.query);
    auto reparsed_query = xpath::ParseQuery(query_text);
    ASSERT_TRUE(reparsed_query.ok()) << reparsed_query.status().ToString();

    const std::string xml_text = xml::SerializeDocument(instance.doc);
    auto reparsed_doc = xml::ParseDocument(xml_text);
    ASSERT_TRUE(reparsed_doc.ok()) << reparsed_doc.status().ToString();
    std::string why;
    ASSERT_TRUE(testkit::ExhaustiveEquals(instance.doc, *reparsed_doc, &why))
        << why;

    CoreLinearEvaluator linear;
    auto original = linear.EvaluateNodeSet(instance.doc, instance.query);
    auto round_tripped = linear.EvaluateNodeSet(*reparsed_doc, *reparsed_query);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(round_tripped.ok());
    EXPECT_EQ(original->empty(), round_tripped->empty());
    EXPECT_EQ(!original->empty(), circuit.Evaluate(assignment));
  }
}

TEST(CircuitReductionTest, AllTrueAndAllFalseInputs) {
  Rng rng(23);
  RandomMonotoneOptions options;
  options.num_inputs = 5;
  options.num_gates = 12;
  for (int trial = 0; trial < 5; ++trial) {
    Circuit circuit = RandomMonotone(&rng, options);
    // Monotone circuits: all-true evaluates true, all-false evaluates false.
    std::vector<bool> all_true(5, true);
    std::vector<bool> all_false(5, false);
    EXPECT_TRUE(ReductionAnswer(CircuitToCoreXPath(circuit, all_true)));
    EXPECT_FALSE(ReductionAnswer(CircuitToCoreXPath(circuit, all_false)));
  }
}

}  // namespace
}  // namespace gkx::reductions
