#include "plan/physical.hpp"

#include <optional>
#include <utility>

#include "xpath/analysis.hpp"

namespace gkx::plan {

namespace {

/// The cheapest sound engine for one step: predicate-free → the NL
/// frontier sweep; every predicate a Core bexpr (Def 2.5) → the
/// condition-set engine; anything else → the context-value tables.
Route StepRoute(const xpath::Step& step, const xpath::QueryAnalysis& analysis) {
  if (step.predicates.empty()) return Route::kPfFrontier;
  for (const xpath::ExprPtr& predicate : step.predicates) {
    if (!analysis.traits(*predicate).core_condition) return Route::kCvt;
  }
  return Route::kCoreLinear;
}

/// Fuses the top-level steps of `path` into segments: a run of cvt steps is
/// one cvt segment, and a run of predicate-free and Core steps is one
/// bitset segment, routed core-linear as soon as one of its steps has a
/// predicate.
std::vector<Segment> FuseSegments(const xpath::PathExpr& path,
                                  const xpath::QueryAnalysis& analysis) {
  std::vector<Segment> segments;
  for (int s = 0; s < static_cast<int>(path.step_count()); ++s) {
    const Route route =
        StepRoute(path.step(static_cast<size_t>(s)), analysis);
    if (!segments.empty() &&
        (segments.back().route == Route::kCvt) == (route == Route::kCvt)) {
      segments.back().step_end = s + 1;
      if (route == Route::kCoreLinear) segments.back().route = route;
    } else {
      segments.push_back(Segment{route, s, s + 1});
    }
  }
  if (segments.empty()) segments.push_back(Segment{Route::kPfFrontier, 0, 0});
  return segments;
}

/// Cost-model boundary placement: a short bitset segment sandwiched between
/// two cvt segments pays two NodeBitset⇄NodeSet materializations for a
/// handful of sweeps. Running those steps on the (already bound) cvt engine
/// is sound — cvt evaluates the full fragment — and removes both seams, so
/// demote while the CostModel says the boundaries dominate, then re-fuse.
void DemoteSandwichedSegments(std::vector<Segment>* segments) {
  const int max_steps = kDefaultCostModel.max_demoted_steps();
  bool demoted = false;
  for (size_t i = 1; i + 1 < segments->size(); ++i) {
    Segment& mid = (*segments)[i];
    if (mid.route != Route::kCvt && (*segments)[i - 1].route == Route::kCvt &&
        (*segments)[i + 1].route == Route::kCvt &&
        mid.step_end - mid.step_begin <= max_steps) {
      mid.route = Route::kCvt;
      demoted = true;
    }
  }
  if (!demoted) return;
  std::vector<Segment> fused;
  for (const Segment& segment : *segments) {
    if (!fused.empty() && fused.back().route == segment.route) {
      fused.back().step_end = segment.step_end;
    } else {
      fused.push_back(segment);
    }
  }
  *segments = std::move(fused);
}

/// The branch paths of a path root or a (possibly nested) union of paths,
/// in union order; false for anything else (a scalar root).
bool CollectPaths(const xpath::Expr& expr,
                  std::vector<const xpath::PathExpr*>* paths) {
  if (expr.kind() == xpath::Expr::Kind::kPath) {
    paths->push_back(&expr.As<xpath::PathExpr>());
    return true;
  }
  if (expr.kind() != xpath::Expr::Kind::kUnion) return false;
  const auto& u = expr.As<xpath::UnionExpr>();
  for (size_t i = 0; i < u.branch_count(); ++i) {
    if (!CollectPaths(u.branch(i), paths)) return false;
  }
  return true;
}

}  // namespace

Physical Lower(Normalized normalized) {
  Physical out{std::move(normalized.query),
               std::move(normalized.canonical_text), /*fragment=*/{},
               /*branches=*/{}, /*route_label=*/{}, /*footprint=*/{}};
  out.fragment = xpath::Classify(out.query);
  out.footprint = ExtractFootprint(out.query);

  std::vector<const xpath::PathExpr*> paths;
  if (!CollectPaths(out.query.root(), &paths)) {
    out.route_label = std::string(RouteName(Route::kCvt));
    return out;
  }
  std::optional<Route> last;
  for (const xpath::PathExpr* path : paths) {
    BranchProgram branch;
    branch.path = path;
    branch.segments = FuseSegments(*path, out.query.analysis());
    DemoteSandwichedSegments(&branch.segments);
    for (const Segment& segment : branch.segments) {
      // Collapse consecutive duplicates, across branch boundaries too.
      if (segment.route == last) continue;
      if (last.has_value()) out.route_label += '+';
      out.route_label += RouteName(segment.route);
      last = segment.route;
    }
    out.branches.push_back(std::move(branch));
  }
  return out;
}

Physical Compile(xpath::Query parsed) {
  return Lower(Normalize(std::move(parsed)));
}

}  // namespace gkx::plan
