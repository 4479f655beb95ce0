// Theorem 5.7 / Corollary 5.8 property tests: the negation-free reduction
// with iterated predicates (predicate chains of length exactly 2 encoding
// not() via [last()=1] / [last()>1]) agrees with direct circuit evaluation.

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/recursive_base.hpp"
#include "reductions/circuit_to_iterated_pwf.hpp"
#include "xpath/analysis.hpp"
#include "xpath/fragment.hpp"

namespace gkx::reductions {
namespace {

using circuits::AllAssignments;
using circuits::CarryCircuit;
using circuits::Circuit;
using circuits::RandomMonotone;
using circuits::RandomMonotoneOptions;
using eval::CvtEvaluator;

bool ReductionAnswer(const CircuitReduction& instance) {
  CvtEvaluator cvt;
  auto nodes = cvt.EvaluateNodeSet(instance.doc, instance.query);
  EXPECT_TRUE(nodes.ok()) << nodes.status().ToString();
  // Cross-check with the naive spec engine.
  eval::NaiveEvaluator naive;
  auto naive_nodes = naive.EvaluateNodeSet(instance.doc, instance.query);
  EXPECT_TRUE(naive_nodes.ok());
  EXPECT_EQ(*nodes, *naive_nodes);
  return !nodes->empty();
}

TEST(IteratedReductionTest, TinyAndGate) {
  Circuit circuit;
  int32_t a = circuit.AddInput();
  int32_t b = circuit.AddInput();
  circuit.AddAnd({a, b});
  for (const auto& assignment : AllAssignments(2)) {
    CircuitReduction instance = CircuitToIteratedPwf(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment));
  }
}

TEST(IteratedReductionTest, TinyOrGate) {
  Circuit circuit;
  int32_t a = circuit.AddInput();
  int32_t b = circuit.AddInput();
  circuit.AddOr({a, b});
  for (const auto& assignment : AllAssignments(2)) {
    CircuitReduction instance = CircuitToIteratedPwf(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment));
  }
}

TEST(IteratedReductionTest, CarryCircuitExhaustive) {
  Circuit circuit = CarryCircuit(2);
  for (const auto& assignment : AllAssignments(4)) {
    CircuitReduction instance = CircuitToIteratedPwf(circuit, assignment);
    EXPECT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment));
  }
}

TEST(IteratedReductionTest, QueryShapeMatchesCorollary58) {
  Circuit circuit = CarryCircuit(2);
  CircuitReduction instance =
      CircuitToIteratedPwf(circuit, {true, false, true, true});
  const xpath::QueryAnalysis& analysis = instance.query.analysis();
  // Negation-free, predicate chains of length exactly <= 2 (Cor 5.8), uses
  // last(), stays inside WF + iterated predicates.
  EXPECT_FALSE(analysis.has_negation);
  EXPECT_EQ(analysis.max_predicates_per_step, 2);
  EXPECT_TRUE(analysis.functions_used.count(xpath::Function::kLast) > 0);
  xpath::FragmentReport report = xpath::Classify(instance.query);
  EXPECT_TRUE(report.in_wf);    // WF syntax
  EXPECT_FALSE(report.in_pwf);  // iterated predicates violate Def 5.1
}

TEST(IteratedReductionTest, DocumentHasWChildrenAndALabel) {
  Circuit circuit = CarryCircuit(2);  // M=4, N=5
  CircuitReduction instance =
      CircuitToIteratedPwf(circuit, {false, false, false, false});
  // v0 + (M+N) vi + (M+N) v'i + (M+N) wi + w0.
  EXPECT_EQ(instance.doc.size(), 1 + 9 + 9 + 9 + 1);
  EXPECT_TRUE(instance.doc.NodeHasName(0, "A"));
  int w_count = 0;
  for (xml::NodeId v = 0; v < instance.doc.size(); ++v) {
    if (instance.doc.NodeHasName(v, "W")) ++w_count;
  }
  EXPECT_EQ(w_count, 10);
}

class IteratedPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IteratedPropertyTest, AgreesWithDirectEvaluation) {
  Rng rng(GetParam());
  RandomMonotoneOptions options;
  options.num_inputs = 4;
  options.num_gates = 10;
  for (int trial = 0; trial < 4; ++trial) {
    Circuit circuit = RandomMonotone(&rng, options);
    for (int a = 0; a < 6; ++a) {
      std::vector<bool> assignment;
      for (int32_t i = 0; i < 4; ++i) assignment.push_back(rng.Bernoulli(0.5));
      CircuitReduction instance = CircuitToIteratedPwf(circuit, assignment);
      ASSERT_EQ(ReductionAnswer(instance), circuit.Evaluate(assignment))
          << "seed=" << GetParam() << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratedPropertyTest,
                         ::testing::Values(61, 67, 71, 73));

}  // namespace
}  // namespace gkx::reductions
