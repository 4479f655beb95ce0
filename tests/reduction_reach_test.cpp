// Theorem 4.3 / Figure 5 property tests: the PF query of the reachability
// reduction selects a non-empty node set iff dst is BFS-reachable from src.
// Structural invariants: the query is PF (predicate-free), uses only the
// axes child/parent/descendant/self, and document/query sizes are polynomial.

#include <gtest/gtest.h>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "graphs/digraph.hpp"
#include "reductions/reach_to_pf.hpp"
#include "xpath/analysis.hpp"
#include "xpath/fragment.hpp"

namespace gkx::reductions {
namespace {

using eval::CoreLinearEvaluator;
using graphs::CycleGraph;
using graphs::Digraph;
using graphs::IsReachable;
using graphs::PathGraph;
using graphs::RandomDigraph;

bool ReductionAnswer(const ReachabilityReduction& instance) {
  CoreLinearEvaluator linear;
  auto nodes = linear.EvaluateNodeSet(instance.doc, instance.query);
  EXPECT_TRUE(nodes.ok()) << nodes.status().ToString();
  return !nodes->empty();
}

TEST(ReachReductionTest, PathGraphForwardOnly) {
  Digraph graph = PathGraph(4);
  for (int32_t u = 0; u < 4; ++u) {
    for (int32_t v = 0; v < 4; ++v) {
      ReachabilityReduction instance = ReachabilityToPf(graph, u, v);
      EXPECT_EQ(ReductionAnswer(instance), u <= v) << u << "->" << v;
    }
  }
}

TEST(ReachReductionTest, CycleEverythingReachable) {
  Digraph graph = CycleGraph(5);
  for (int32_t u = 0; u < 5; ++u) {
    for (int32_t v = 0; v < 5; ++v) {
      ReachabilityReduction instance = ReachabilityToPf(graph, u, v);
      EXPECT_TRUE(ReductionAnswer(instance)) << u << "->" << v;
    }
  }
}

TEST(ReachReductionTest, NoEdgesOnlySelfReachable) {
  Digraph graph(3);
  for (int32_t u = 0; u < 3; ++u) {
    for (int32_t v = 0; v < 3; ++v) {
      ReachabilityReduction instance = ReachabilityToPf(graph, u, v);
      EXPECT_EQ(ReductionAnswer(instance), u == v);
    }
  }
}

TEST(ReachReductionTest, QueryIsPF) {
  Digraph graph = PathGraph(4);
  ReachabilityReduction instance = ReachabilityToPf(graph, 0, 3);
  xpath::FragmentReport report = xpath::Classify(instance.query);
  EXPECT_TRUE(report.in_pf);
  EXPECT_EQ(report.smallest, xpath::Fragment::kPF);

  const xpath::QueryAnalysis& analysis = instance.query.analysis();
  using xpath::Axis;
  EXPECT_EQ(analysis.max_predicates_per_step, 0);
  for (int a = 0; a < xpath::kNumAxes; ++a) {
    Axis axis = static_cast<Axis>(a);
    bool allowed = axis == Axis::kChild || axis == Axis::kParent ||
                   axis == Axis::kDescendant || axis == Axis::kSelf;
    if (!allowed) {
      EXPECT_FALSE(analysis.axes_used[static_cast<size_t>(axis)])
          << xpath::AxisName(axis);
    }
  }
}

TEST(ReachReductionTest, SizesArePolynomial) {
  Rng rng(5);
  for (int32_t n : {3, 6, 12}) {
    Digraph graph = RandomDigraph(&rng, n, 0.3);
    ReachabilityReduction instance = ReachabilityToPf(graph, 0, n - 1);
    // Document: O(n * |E| * n) nodes; query: O(n^2) steps.
    const int64_t edges = graph.num_edges() + n;  // + self loops
    EXPECT_LE(instance.doc.Stats().node_count, 2 + 2 * n + n + edges * (3 * n + 2));
    EXPECT_LE(instance.query.size(),
              2 * (2 + static_cast<int64_t>(n) * (4 * n + 3)));
  }
}

struct ReachCase {
  uint64_t seed;
  int32_t n;
  double p;
};

class ReachPropertyTest : public ::testing::TestWithParam<ReachCase> {};

TEST_P(ReachPropertyTest, AgreesWithBfs) {
  const ReachCase& param = GetParam();
  Rng rng(param.seed);
  Digraph graph = RandomDigraph(&rng, param.n, param.p);
  // Shared document; per-pair queries.
  Digraph with_loops = graph;
  with_loops.AddSelfLoops();
  xml::Document doc = ReachabilityDocument(with_loops);
  CoreLinearEvaluator linear;
  for (int trial = 0; trial < 10; ++trial) {
    const int32_t src = static_cast<int32_t>(rng.UniformInt(0, param.n - 1));
    const int32_t dst = static_cast<int32_t>(rng.UniformInt(0, param.n - 1));
    xpath::Query query = ReachabilityQuery(param.n, src, dst);
    auto nodes = linear.EvaluateNodeSet(doc, query);
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    EXPECT_EQ(!nodes->empty(), IsReachable(graph, src, dst))
        << "seed=" << param.seed << " " << src << "->" << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReachPropertyTest,
                         ::testing::Values(ReachCase{11, 4, 0.3},
                                           ReachCase{12, 6, 0.2},
                                           ReachCase{13, 8, 0.15},
                                           ReachCase{14, 8, 0.4},
                                           ReachCase{15, 10, 0.1},
                                           ReachCase{16, 12, 0.12}));

TEST(ReachReductionTest, CvtEngineAgreesOnSmallInstance) {
  Rng rng(21);
  Digraph graph = RandomDigraph(&rng, 5, 0.3);
  for (int32_t v = 0; v < 5; ++v) {
    ReachabilityReduction instance = ReachabilityToPf(graph, 0, v);
    eval::CvtEvaluator cvt;
    auto nodes = cvt.EvaluateNodeSet(instance.doc, instance.query);
    ASSERT_TRUE(nodes.ok());
    EXPECT_EQ(!nodes->empty(), IsReachable(graph, 0, v));
  }
}

}  // namespace
}  // namespace gkx::reductions
