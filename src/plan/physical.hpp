// The physical program: stage 2 of the compile pipeline (see ir.hpp).
//
// Lower() turns every plan into one shape: a program per branch path of the
// root (the root path, or each branch of a union of paths), each a list of
// fused segments. Each step is routed by its predicates' Core-ness
// (ExprTraits::core_condition). Contiguous predicate-free and
// Core-predicate steps fuse into one bitset segment that flows a NodeBitset
// frontier from step to step in O(|D|) sweeps — labelled core-linear if any
// of its steps has a predicate, pf-frontier otherwise; the two differ only
// in the condition intersection. A cvt segment maps the same frontier
// through its steps on the context-value-table engine, so a mixed query
// pays for generality exactly in the steps that need it, with no
// conversion at the seams. A uniform plan is simply a one-segment program.
//
// The one exception is a scalar root (count(...), arithmetic, a
// comparison): it has no path spine to sweep, so it has no branches and
// runs whole on the cvt engine.
//
// Physical plans are immutable after Lower and safe to share across
// threads; the PlanCache hands them out as shared_ptr<const Physical>.

#ifndef GKX_PLAN_PHYSICAL_HPP_
#define GKX_PLAN_PHYSICAL_HPP_

#include <string>
#include <vector>

#include "plan/footprint.hpp"
#include "plan/ir.hpp"
#include "xpath/fragment.hpp"

namespace gkx::plan {

/// A fused run of steps [step_begin, step_end) of one branch path, all
/// executed by the same engine. A zero-step branch ("/") is one empty
/// pf-frontier segment, so every branch has at least one segment.
struct Segment {
  Route route = Route::kPfFrontier;
  int step_begin = 0;
  int step_end = 0;
};

/// The program for one top-level location path (the root path, or one
/// branch of a root union).
struct BranchProgram {
  const xpath::PathExpr* path = nullptr;  // borrowed from Physical::query
  std::vector<Segment> segments;
};

/// A compiled, immutable physical plan (`eval::Engine::Plan`).
struct Physical {
  xpath::Query query;              // normalized AST (owns the tree)
  std::string canonical_text;      // the PlanCache normal form
  xpath::FragmentReport fragment;  // whole-query report

  /// One program per branch path of the root, in union order; empty for a
  /// scalar root, which runs whole on cvt.
  std::vector<BranchProgram> branches;

  /// The per-segment route list spelled by RouteName, e.g.
  /// "pf-frontier+cvt+pf-frontier" (consecutive duplicates collapsed, also
  /// across branches); a one-segment plan is its one route, a scalar root
  /// "cvt". This is what Engine::Answer.evaluator reports.
  std::string route_label;

  /// Conservative tag/axis dependency set (see footprint.hpp) — what the
  /// mview answer cache and subscription manager key invalidation on.
  Footprint footprint;
};

/// Stage 2: per-step routing and segment fusion.
Physical Lower(Normalized normalized);

/// The whole pipeline: Normalize + Lower.
Physical Compile(xpath::Query parsed);

}  // namespace gkx::plan

#endif  // GKX_PLAN_PHYSICAL_HPP_
