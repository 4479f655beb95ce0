// The physical program: stage 3 of the compile pipeline (see ir.hpp).
//
// Lower() fuses contiguous same-engine runs of steps into pipeline
// segments. A bitset-native segment (pf-frontier / core-linear) flows a
// NodeBitset frontier from step to step in O(|D|) sweeps; a cvt segment
// evaluates its steps per origin node through the context-value tables.
// Between a bitset segment and a cvt segment sits an explicit
// materialization boundary (NodeBitset ⇄ document-order NodeSet) — the only
// points where representation conversion happens, so a mixed query pays for
// generality exactly where it uses it.
//
// A plan is *staged* only when it genuinely mixes routes (some segment
// needs CVT and some does not). Uniform plans keep the classic whole-query
// dispatch — same engines, same labels, zero overhead — so staging is a
// strict refinement of whole-query dispatch.
//
// Physical plans are immutable after Lower and safe to share across
// threads; the PlanCache hands them out as shared_ptr<const Physical>.

#ifndef GKX_PLAN_PHYSICAL_HPP_
#define GKX_PLAN_PHYSICAL_HPP_

#include <string>
#include <vector>

#include "plan/footprint.hpp"
#include "plan/ir.hpp"

namespace gkx::plan {

/// Measured per-route execution costs, in relative units of one O(|D|)
/// bitset sweep. The constants come from the BENCH_fragments hybrid census
/// on the committed 8k-node deep corpus (bench/bench_fig1_fragments.cpp,
/// seed 4242): a NodeBitset⇄NodeSet materialization boundary costs about
/// two sweeps (bit-iteration + document-order set build), and a cvt step
/// over a typical mid-plan frontier about three and a half. Lower uses them
/// to place materialization boundaries.
struct CostModel {
  double sweep_step = 1.0;   // one bitset axis sweep over |D|
  double boundary = 1.9;     // one NodeBitset⇄NodeSet conversion
  double cvt_step = 3.4;     // one per-origin cvt step, mid-plan frontier

  /// Longest bitset segment worth demoting to cvt when it sits between two
  /// cvt segments: running s steps on the (already bound) cvt engine costs
  /// cvt_step·s but removes the two materialization boundaries around it;
  /// demotion wins while cvt_step·s < sweep_step·s + 2·boundary.
  int max_demoted_steps() const {
    return static_cast<int>(2.0 * boundary / (cvt_step - sweep_step));
  }
};

inline constexpr CostModel kDefaultCostModel{};

/// A fused run of steps [step_begin, step_end) of one branch path, all
/// executed by the same engine.
struct Segment {
  Route route = Route::kPfFrontier;
  int step_begin = 0;
  int step_end = 0;
};

/// The staged program for one top-level location path (the root path, or
/// one branch of a root union).
struct BranchProgram {
  const xpath::PathExpr* path = nullptr;  // borrowed from Physical::query
  std::vector<Segment> segments;
};

/// A compiled, immutable physical plan (`eval::Engine::Plan`).
struct Physical {
  xpath::Query query;              // normalized AST (owns the tree)
  std::string canonical_text;      // the PlanCache normal form
  xpath::FragmentReport fragment;  // whole-query report
  std::vector<StepPlan> steps;     // per-step annotations, by Step::id

  /// Whole-query route — the dispatch used when the plan is not staged,
  /// and what classic whole-query dispatch would have chosen regardless.
  Route choice = Route::kCvt;

  /// True when execution runs the segment pipeline; false = single-engine.
  bool staged = false;
  std::vector<BranchProgram> branches;  // non-empty iff staged

  /// The per-segment route list, e.g. "pf-frontier+cvt+pf-frontier"
  /// (consecutive duplicates collapsed); for uniform plans this is just the
  /// evaluator name. This is what Engine::Answer.evaluator reports.
  std::string route_label;

  /// Conservative tag/axis dependency set (see footprint.hpp) — what the
  /// mview answer cache and subscription manager key invalidation on.
  Footprint footprint;
};

/// The classic whole-query dispatch (Figure 1): PF → pf-frontier, Core XPath
/// → core-linear, anything else → cvt.
Route WholeQueryRoute(const xpath::FragmentReport& fragment);

/// Stage 3: segment fusion. `logical` must be classified (ClassifyOps).
Physical Lower(Logical logical);

/// The whole pipeline: Normalize + ClassifyOps + Lower.
Physical Compile(xpath::Query parsed);

}  // namespace gkx::plan

#endif  // GKX_PLAN_PHYSICAL_HPP_
