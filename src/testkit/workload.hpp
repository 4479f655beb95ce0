// Deterministic concurrent-workload generation for the serving layer.
//
// A WorkloadSpec describes a traffic shape — fragment mix, zipfian query and
// document popularity, batch-size distribution, live document churn — and
// CompileWorkload() expands it into a fixed Schedule: the document corpus
// (every revision pre-generated), the query pool, and a flat operation list.
// Compilation draws from a single base::Rng stream, so a (spec, seed) pair
// yields byte-identical schedules on every platform and every run: a soak
// failure is replayed exactly by re-compiling with the reported seed.
//
// The schedule fixes WHAT happens, not WHEN: testkit::RunSoak
// (soak_driver.hpp) replays it over N threads, and the thread interleaving
// is the only nondeterminism left — exactly the regime the differential
// oracle is designed to check.

#ifndef GKX_TESTKIT_WORKLOAD_HPP_
#define GKX_TESTKIT_WORKLOAD_HPP_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "base/status.hpp"
#include "xml/document.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"
#include "xpath/fragment.hpp"
#include "xpath/generator.hpp"

namespace gkx::testkit {

/// One slice of the fragment mix: queries of `fragment` make up a share of
/// the pool proportional to `weight`.
struct FragmentShare {
  xpath::Fragment fragment = xpath::Fragment::kPF;
  double weight = 1.0;
};

/// The serving-realistic default mix: paths dominate, a tail of heavier
/// fragments keeps every route (pf-frontier/pf-indexed, core-linear, cvt)
/// on the hook.
std::vector<FragmentShare> DefaultFragmentMix();

struct WorkloadSpec {
  /// Master seed; everything below is a pure function of (spec, seed).
  uint64_t seed = 1;

  /// Schedule entries (a batch counts as one operation).
  int operations = 10000;

  // ------------------------------------------------------------ corpus
  /// Documents registered before the run ("doc0", "doc1", ...).
  int documents = 4;
  /// Per-revision node count, UniformInt(min_document_nodes, max).
  int min_document_nodes = 40;
  int max_document_nodes = 120;
  /// Shape knobs shared by every generated revision (node_count is
  /// overridden per revision).
  xml::RandomDocumentOptions document_options;

  // ------------------------------------------------------------ queries
  /// Unique query texts in the pool.
  int queries = 48;
  /// Fragment mix; weights need not sum to 1. Empty = DefaultFragmentMix().
  std::vector<FragmentShare> mix;
  /// Shape knobs shared by every generated query (fragment is overridden
  /// per draw). Defaults are sized so the naive oracle stays tractable.
  xpath::RandomQueryOptions query_options;

  // ------------------------------------------------------------ traffic
  /// Zipf skew of query popularity (0 = uniform): rank-0 queries dominate,
  /// which is what makes the plan cache earn its keep.
  double query_zipf_s = 1.1;
  /// Zipf skew of document popularity.
  double document_zipf_s = 0.8;
  /// Probability that an operation is a SubmitBatch instead of a Submit.
  double batch_probability = 0.2;
  /// Batch sizes are UniformInt(2, max_batch).
  int max_batch = 8;
  /// Probability that an operation mutates a live document (churn).
  double churn_probability = 0.005;
  /// Of the churn events, the fraction carried out as a subtree edit
  /// (DocumentStore::Update — the delta pipeline) instead of a whole
  /// document replacement. 0 restores pure AddDocument churn.
  double edit_probability = 0.5;
  /// Subtree-edit shape (kind weights, spliced-subtree size). The
  /// generated subtrees reuse `document_options`' alphabet/shape knobs, so
  /// edited regions carry the same names as the rest of the corpus — the
  /// overlapping-names regime region×name invalidation is for.
  xml::RandomEditOptions edit_options;
};

struct Operation {
  enum class Kind { kSubmit, kBatch, kAddDocument, kEditDocument };
  Kind kind = Kind::kSubmit;
  /// (document index, query index) pairs: one for kSubmit, several for
  /// kBatch, empty for the churn kinds.
  std::vector<std::pair<int32_t, int32_t>> requests;
  /// Churn kinds: which document is mutated, and the revision index the
  /// mutation produces (kAddDocument installs revisions[doc][revision]
  /// wholesale; kEditDocument applies `edit`, whose precomputed result IS
  /// revisions[doc][revision]).
  int32_t doc = -1;
  int32_t revision = -1;
  /// kEditDocument: the subtree patch, valid against revisions[doc][revision - 1].
  xml::SubtreeEdit edit;
};

/// A fully materialized workload. Immutable once compiled; safe to share
/// read-only across driver threads.
struct Schedule {
  uint64_t seed = 0;
  std::vector<std::string> doc_keys;                  // "doc<i>"
  std::vector<std::vector<xml::Document>> revisions;  // [doc][revision]
  std::vector<std::string> queries;                   // parse-checked texts
  std::vector<Operation> operations;
  /// Total Submit-equivalents (batched requests counted individually).
  int64_t total_requests = 0;
};

/// Expands a spec into a schedule. Fails on inconsistent specs (no
/// documents, no queries, empty mix weights, ...); never fails for valid
/// specs — every generated query text is checked to re-parse.
Result<Schedule> CompileWorkload(const WorkloadSpec& spec);

}  // namespace gkx::testkit

#endif  // GKX_TESTKIT_WORKLOAD_HPP_
