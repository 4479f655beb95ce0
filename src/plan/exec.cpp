#include "plan/exec.hpp"

#include <algorithm>
#include <utility>

#include "eval/core_linear_evaluator.hpp"
#include "eval/cvt_evaluator.hpp"
#include "eval/node_set.hpp"
#include "obs/trace.hpp"

namespace gkx::plan {

using eval::NodeBitset;
using eval::NodeSet;
using eval::Value;

namespace {

/// One staged-path execution. By default the run owns private engine
/// instances (concurrent executions never share scratch state), bound once
/// so memo tables persist across segments of the same run; a caller with a
/// long-lived engine passes its evaluators via ExecOptions and keeps those
/// binds warm ACROSS runs of the same (document, plan). With workers > 1
/// the bitset engine partitions its sweeps and the cvt engine switches its
/// memo into concurrent (shared-lock) mode; answers are byte-identical
/// either way.
class StagedRun {
 public:
  StagedRun(const xml::Document& doc, const Physical& plan,
            const ExecOptions& opts, ExecStats* stats)
      : doc_(doc),
        plan_(plan),
        opts_(opts),
        stats_(stats),
        linear_(opts.linear != nullptr ? *opts.linear : own_linear_),
        cvt_(opts.cvt != nullptr ? *opts.cvt : own_cvt_) {
    if (opts_.workers > 1 && opts_.pool == nullptr) {
      opts_.pool = &ThreadPool::Shared();
    }
    linear_.set_sweep_options(eval::SweepOptions{
        opts_.pool, opts_.workers, opts_.min_parallel_nodes});
    cvt_.set_concurrent(opts_.workers > 1);
    linear_.Bind(doc);
  }

  Status BindCvt() { return cvt_.Bind(doc_, plan_.query); }

  Result<NodeBitset> RunBranch(const BranchProgram& branch,
                               const eval::Context& ctx, ExecTrace* trace) {
    NodeBitset frontier(doc_.size());
    frontier.Set(branch.path->absolute() ? doc_.root() : ctx.node);
    for (const Segment& segment : branch.segments) {
      if (frontier.Empty()) {
        if (trace == nullptr && stats_ == nullptr) break;
        // Traced/counted runs report every segment (0.0s / one `skipped`
        // increment) so trace length and the stats bucket sum always equal
        // the plan's segment count.
        if (trace != nullptr) trace->push_back({segment.route, 0.0});
        if (stats_ != nullptr) {
          stats_->skipped_segments.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      const uint64_t t0 = trace != nullptr ? obs::NowNs() : 0;
      bool ran_parallel = false;
      switch (segment.route) {
        case Route::kPfFrontier:
        case Route::kCoreLinear: {
          // Bitset-native: frontier sweeps (a predicate-free step and a
          // Core-condition step differ only in the condition intersection).
          // Partitioning happens inside the evaluator, per sweep; whether
          // it forks is a pure function of the options and |D|.
          ran_parallel =
              opts_.workers > 1 && doc_.size() >= opts_.min_parallel_nodes;
          auto swept = linear_.EvalStepRange(
              *branch.path, static_cast<size_t>(segment.step_begin),
              static_cast<size_t>(segment.step_end), frontier);
          if (!swept.ok()) return swept.status();
          frontier = *std::move(swept);
          break;
        }
        case Route::kCvt: {
          // Materialization boundary: bitset -> document-order node set,
          // per-origin step application on the CVT engine, and back.
          NodeSet current = frontier.ToNodeSet();
          for (int s = segment.step_begin;
               s < segment.step_end && !current.empty(); ++s) {
            const xpath::Step& step =
                branch.path->step(static_cast<size_t>(s));
            auto next = ApplyCvtStep(step, current, &ran_parallel);
            if (!next.ok()) return next.status();
            current = *std::move(next);
          }
          frontier = NodeBitset::FromNodeSet(current, doc_.size());
          break;
        }
      }
      if (stats_ != nullptr) {
        (ran_parallel ? stats_->parallel_segments
                      : stats_->sequential_segments)
            .fetch_add(1, std::memory_order_relaxed);
      }
      if (trace != nullptr) {
        trace->push_back(
            {segment.route, static_cast<double>(obs::NowNs() - t0) * 1e-9});
      }
    }
    return frontier;
  }

 private:
  /// One cvt step over all origins. Past the cost-model threshold the
  /// origin list (document order) splits into contiguous chunks, each
  /// worker appends its survivors to a private set, and the chunks
  /// concatenate in order before the canonical SortUnique — so the result
  /// is the exact set the sequential loop produces. The workers share the
  /// bound engine's memo tables (concurrent mode: hits take shared locks).
  Result<NodeSet> ApplyCvtStep(const xpath::Step& step, const NodeSet& origins,
                               bool* ran_parallel) {
    const int n = static_cast<int>(origins.size());
    int chunks = 1;
    if (opts_.workers > 1 && opts_.min_parallel_origins > 0) {
      chunks = std::min(opts_.workers, n / opts_.min_parallel_origins);
    }
    if (chunks < 2) {
      NodeSet next;
      for (xml::NodeId origin : origins) {
        GKX_RETURN_IF_ERROR(cvt_.ApplyBoundStep(step, origin, &next));
      }
      eval::SortUnique(&next);
      return next;
    }

    *ran_parallel = true;
    const int per = (n + chunks - 1) / chunks;
    std::vector<NodeSet> parts(static_cast<size_t>(chunks));
    std::vector<Status> statuses(static_cast<size_t>(chunks), Status::Ok());
    opts_.pool->ParallelFor(chunks, [&](int c) {
      const int begin = c * per;
      const int end = std::min(n, begin + per);
      NodeSet& part = parts[static_cast<size_t>(c)];
      for (int i = begin; i < end; ++i) {
        Status status = cvt_.ApplyBoundStep(
            step, origins[static_cast<size_t>(i)], &part);
        if (!status.ok()) {
          statuses[static_cast<size_t>(c)] = std::move(status);
          return;
        }
      }
    });
    size_t total = 0;
    for (int c = 0; c < chunks; ++c) {
      GKX_RETURN_IF_ERROR(statuses[static_cast<size_t>(c)]);
      total += parts[static_cast<size_t>(c)].size();
    }
    NodeSet next;
    next.reserve(total);
    for (const NodeSet& part : parts) {
      next.insert(next.end(), part.begin(), part.end());
    }
    eval::SortUnique(&next);
    return next;
  }

  const xml::Document& doc_;
  const Physical& plan_;
  ExecOptions opts_;
  ExecStats* stats_;
  // Fallback engines when the caller didn't lend long-lived ones; the
  // references (declared after, so they initialize after) select between
  // the owned and the lent instances.
  eval::CoreLinearEvaluator own_linear_;
  eval::CvtEvaluator own_cvt_;
  eval::CoreLinearEvaluator& linear_;
  eval::CvtEvaluator& cvt_;
};

}  // namespace

Result<Value> ExecuteStaged(const xml::Document& doc, const Physical& plan,
                            const eval::Context& ctx, ExecTrace* trace,
                            const ExecOptions& opts, ExecStats* stats) {
  GKX_CHECK(plan.staged);
  if (doc.empty()) return InvalidArgumentError("empty document");
  // Buffer the per-segment counts locally and flush only on success: the
  // caller's dispatch counters count successful staged runs, and the
  // reconciliation invariant (parallel + sequential + skipped == dispatched
  // segments) must hold exactly — a run that fails mid-branch contributes
  // to neither side.
  ExecStats local;
  StagedRun run(doc, plan, opts, stats != nullptr ? &local : nullptr);
  GKX_RETURN_IF_ERROR(run.BindCvt());
  NodeBitset merged(doc.size());
  for (const BranchProgram& branch : plan.branches) {
    auto result = run.RunBranch(branch, ctx, trace);
    if (!result.ok()) return result.status();
    merged |= *result;
  }
  if (stats != nullptr) {
    stats->parallel_segments.fetch_add(
        local.parallel_segments.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stats->sequential_segments.fetch_add(
        local.sequential_segments.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    stats->skipped_segments.fetch_add(
        local.skipped_segments.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  return Value::Nodes(merged.ToNodeSet());
}

}  // namespace gkx::plan
