#include "plan/physical.hpp"

#include <utility>

#include "base/check.hpp"

namespace gkx::plan {

Route WholeQueryRoute(const xpath::FragmentReport& fragment) {
  if (fragment.in_pf) return Route::kPfFrontier;
  if (fragment.in_core) return Route::kCoreLinear;
  return Route::kCvt;
}

namespace {

/// Fuses the top-level steps of `path` into contiguous same-route segments.
std::vector<Segment> FuseSegments(const xpath::PathExpr& path,
                                  const std::vector<StepPlan>& steps) {
  std::vector<Segment> segments;
  for (int s = 0; s < static_cast<int>(path.step_count()); ++s) {
    const xpath::Step& step = path.step(static_cast<size_t>(s));
    const Route route = steps[static_cast<size_t>(step.id)].route;
    if (!segments.empty() && segments.back().route == route) {
      segments.back().step_end = s + 1;
    } else {
      segments.push_back(Segment{route, s, s + 1});
    }
  }
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

}  // namespace

Physical Lower(Logical logical) {
  GKX_CHECK(logical.classified);
  Physical out{std::move(logical.query)};
  out.canonical_text = std::move(logical.canonical_text);
  out.fragment = std::move(logical.fragment);
  out.steps = std::move(logical.steps);
  out.choice = WholeQueryRoute(out.fragment);
  out.footprint = ExtractFootprint(out.query);

  // Collect the top-level branch paths (root path, or union of paths).
  // Anything else — scalar roots, unions with non-path branches — keeps
  // whole-query dispatch.
  const xpath::Expr& root = out.query.root();
  std::vector<const xpath::PathExpr*> paths;
  if (root.kind() == xpath::Expr::Kind::kPath) {
    paths.push_back(&root.As<xpath::PathExpr>());
  } else if (root.kind() == xpath::Expr::Kind::kUnion) {
    const auto& u = root.As<xpath::UnionExpr>();
    for (size_t i = 0; i < u.branch_count(); ++i) {
      if (u.branch(i).kind() != xpath::Expr::Kind::kPath) {
        paths.clear();
        break;
      }
      paths.push_back(&u.branch(i).As<xpath::PathExpr>());
    }
  }

  bool any_cvt = false;
  bool any_bitset = false;
  std::vector<BranchProgram> branches;
  for (const xpath::PathExpr* path : paths) {
    BranchProgram branch;
    branch.path = path;
    branch.segments = FuseSegments(*path, out.steps);
    DemoteSandwichedSegments(&branch.segments);
    for (const Segment& segment : branch.segments) {
      (segment.route == Route::kCvt ? any_cvt : any_bitset) = true;
    }
    branches.push_back(std::move(branch));
  }

  // Stage only genuine hybrids: a uniform plan runs the classic dispatch at
  // identical cost, so staging it would only churn labels.
  out.staged = any_cvt && any_bitset;
  if (!out.staged) {
    out.route_label = std::string(RouteEngineName(out.choice));
    return out;
  }

  out.branches = std::move(branches);
  for (const BranchProgram& branch : out.branches) {
    for (const Segment& segment : branch.segments) {
      const std::string_view name = RouteName(segment.route);
      if (!out.route_label.empty()) {
        // Collapse consecutive duplicates across branch boundaries.
        const size_t at = out.route_label.rfind('+');
        const std::string_view last =
            std::string_view(out.route_label)
                .substr(at == std::string::npos ? 0 : at + 1);
        if (last == name) continue;
        out.route_label += '+';
      }
      out.route_label += name;
    }
  }
  return out;
}

Physical Compile(xpath::Query parsed) {
  Logical logical = Normalize(std::move(parsed));
  ClassifyOps(&logical);
  return Lower(std::move(logical));
}

}  // namespace gkx::plan
