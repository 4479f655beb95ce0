// The materialized-answer layer: a cache of fully evaluated answers keyed
// by (document key, store revision, canonical plan text), sitting between
// the plan cache and plan execution in QueryService::Submit/SubmitBatch.
// Where the PlanCache amortizes lex/parse/classify/lower across repeated
// *texts*, the AnswerCache amortizes evaluation itself across repeated
// (document state, query) pairs — the dominant cost on every non-trivial
// plan, and exactly the work the paper shows is polynomial but far from
// free.
//
// Keying and staleness. The revision in the key is the DocumentStore's
// store-wide monotonic id, so a lookup can only hit when the entry was
// produced against the *exact* document state the caller snapshotted —
// serving stale data would require two distinct states to share a revision,
// which the monotonic counter rules out (no ABA across replace or
// remove/re-register). Entries whose revision no longer matches are dead
// weight, never a correctness hazard.
//
// Fine-grained invalidation. On a document update the service reports the
// changed-name set — for a whole-document replacement the union of the two
// revisions' tag sets, for a subtree update (DocumentStore::Update) just
// the names local to the edited region — plus, in the subtree case, the
// xml::DocumentDelta itself. Entries for that document whose plan
// footprint (plan/footprint.hpp) is affected per Footprint::AffectedBy are
// erased; unaffected entries keep their answers — their revision is bumped
// to the new id so they keep hitting, and when a structural delta shifted
// the preorder ids after the edited region, retained node-set answers are
// remapped by the delta's constant shift (the footprint argument
// guarantees no answer node lies inside the region). This is what lets a
// corpus ride out churn at region×name precision: replacing one <item>
// subtree of a big document does not cost the cached answers of queries
// whose footprints only mention names the edit never touched — even though
// those names (and the queries' answers) live in the same document.
// kFlushDocument / kFlushAll exist to measure exactly that difference
// (bench + golden tests), and Options::delta handling can be disabled
// upstream (QueryService::Options::delta_invalidation) to measure the
// whole-document name-only baseline.
//
// Sharding & budget: entries are sharded by document key (one mutex per
// shard), so invalidation walks a single shard and concurrent lookups on
// different documents rarely contend. Each shard evicts LRU-first when it
// exceeds its slice of the entry capacity or the byte budget (answers are
// accounted by approximate payload size; oversized answers are simply not
// cached).
//
// Thread safety: every public method may be called concurrently.

#ifndef GKX_MVIEW_ANSWER_CACHE_HPP_
#define GKX_MVIEW_ANSWER_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/engine.hpp"
#include "plan/footprint.hpp"

namespace gkx::mview {

/// One cached evaluation (immutable; shared with in-flight readers, so
/// eviction and invalidation never tear an answer being served).
struct CachedAnswer {
  eval::Engine::Answer answer;
  int64_t bytes = 0;  // approximate payload accounting
};

class AnswerCache {
 public:
  enum class InvalidationMode {
    kFootprint,      // erase intersecting entries, retain + re-stamp the rest
    kFlushDocument,  // erase every entry of the updated document
    kFlushAll,       // erase everything on any update (the baseline to beat)
  };

  struct Options {
    /// Maximum cached entries across all shards.
    size_t capacity = 8192;
    /// Approximate total payload budget in bytes, across all shards.
    size_t byte_budget = 64u << 20;
    /// Independently locked buckets; entries shard by document key.
    size_t shards = 8;
    /// Answers larger than this are served but not cached.
    size_t max_entry_bytes = 4u << 20;
    InvalidationMode mode = InvalidationMode::kFootprint;
    /// Test-only fault injection: treat every update as footprint-disjoint,
    /// i.e. retain and re-stamp every entry regardless of its footprint.
    /// This *serves stale answers* after any intersecting churn — the soak
    /// harness uses it to prove its oracle catches exactly that defect.
    /// Must stay false in production.
    bool fault_ignore_footprints = false;
    /// Test-only fault injection for the delta pipeline: on subtree updates
    /// (delta present) skip delta-local invalidation entirely — every entry
    /// is retained, re-stamped, and NOT id-remapped. Whole-document updates
    /// keep working, so precisely the region×name machinery is broken:
    /// after an intersecting subtree edit the cache serves truly stale
    /// answers, which the edit-churn soak must catch with a reproducing
    /// seed. Must stay false in production.
    bool fault_ignore_delta = false;
  };

  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;          // includes revision-mismatch drops
    int64_t inserts = 0;
    int64_t invalidations = 0;   // entries erased by document updates
    int64_t retained = 0;        // entries re-stamped across an update
    int64_t remapped = 0;        // retained node-set answers id-shifted
                                 // across a structural subtree delta
    int64_t evictions = 0;       // capacity/byte-budget LRU victims
    int64_t declined = 0;        // not cached: oversized, or outdated by a
                                 // newer resident entry
    int64_t bytes = 0;           // current payload bytes (gauge)
    int64_t entries = 0;         // current entry count (gauge)

    int64_t Lookups() const { return hits + misses; }
    double HitRate() const {
      const int64_t lookups = Lookups();
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  AnswerCache() : AnswerCache(Options{}) {}
  explicit AnswerCache(const Options& options);

  /// The cached answer for (doc_key, revision, canonical plan text), or
  /// nullptr. A resident entry OLDER than `revision` is dropped on the spot
  /// (monotonic revisions: it can never be served again) and counts as a
  /// miss; a NEWER one is left in place (the caller holds a pre-update
  /// document snapshot — current readers still want that entry) and also
  /// counts as a miss.
  std::shared_ptr<const CachedAnswer> Lookup(std::string_view doc_key,
                                             int64_t revision,
                                             std::string_view canonical_text);

  /// Caches `answer` for the triple. Oversized answers are declined; an
  /// existing entry for the same (doc_key, canonical) pair is replaced
  /// unless it carries a newer revision than `revision` (a straggling
  /// reader never clobbers a current answer).
  void Insert(const std::string& doc_key, int64_t revision,
              const std::string& canonical_text,
              const eval::Engine::Answer& answer,
              const plan::Footprint& footprint);

  /// What one OnDocumentUpdate call did — the per-update churn sample the
  /// observability layer feeds into its update histograms (the Counters
  /// fields with the same names are the running totals).
  struct UpdateImpact {
    int64_t invalidated = 0;
    int64_t retained = 0;
    int64_t remapped = 0;
  };

  /// Invalidation hook for a corpus mutation of `doc_key`.
  ///   * Replacement (old_revision/new_revision both >= 0): under
  ///     kFootprint, entries stamped old_revision whose footprint is
  ///     unaffected (Footprint::AffectedBy over `changed_names` and the
  ///     optional `delta`) are re-stamped to new_revision and retained —
  ///     remapping node-set answers across the delta's id shift when the
  ///     edit changed structure; every other entry of the document is
  ///     erased (entries at other revisions are unservable stragglers from
  ///     racing inserts).
  ///   * Install or removal (old_revision < 0 or new_revision < 0): every
  ///     entry of the document is erased — an install may follow a Remove
  ///     whose incarnation left entries behind.
  /// `changed_names` must be sorted and duplicate-free: the whole-document
  /// union when `delta` is null, the delta-local union otherwise. `delta`
  /// need only live for the duration of the call. Returns this update's
  /// churn impact (entries erased / retained / id-remapped).
  UpdateImpact OnDocumentUpdate(const std::string& doc_key,
                                int64_t old_revision, int64_t new_revision,
                                const std::vector<std::string>& changed_names,
                                const xml::DocumentDelta* delta = nullptr);

  Counters counters() const;

  size_t size() const;

  /// Hard bound on size() (per-shard capacity × shard count).
  size_t capacity_bound() const { return per_shard_capacity_ * shards_.size(); }

  void Clear();

 private:
  struct Entry {
    std::string doc_key;
    std::string canonical_text;
    int64_t revision = 0;
    plan::Footprint footprint;
    std::shared_ptr<const CachedAnswer> cached;
  };

  /// A (doc_key, canonical_text) pair of views: into the entry's own
  /// strings (list nodes never move) as a map key, into the caller's
  /// arguments as a probe — so a lookup builds no key string.
  struct EntryKey {
    std::string_view doc_key;
    std::string_view canonical_text;
    bool operator==(const EntryKey&) const = default;
  };
  struct EntryKeyHash {
    size_t operator()(const EntryKey& key) const;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<EntryKey, std::list<Entry>::iterator, EntryKeyHash> map;
    int64_t bytes = 0;
  };

  Shard& ShardFor(std::string_view doc_key);
  /// Drops `it` from `shard` (bookkeeping only; counters are the caller's).
  void EraseLocked(Shard& shard, std::list<Entry>::iterator it);
  /// Re-bases a retained entry's node-set answer across a structural delta:
  /// every node at or after the old region's end shifts by delta.shift().
  /// The cached answer is immutable (shared with in-flight readers), so a
  /// shifted copy replaces it. Returns true when the answer actually moved.
  bool RemapLocked(Entry& entry, const xml::DocumentDelta& delta);

  Options options_;
  size_t per_shard_capacity_ = 0;
  int64_t per_shard_bytes_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> invalidations_{0};
  std::atomic<int64_t> retained_{0};
  std::atomic<int64_t> remapped_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> declined_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> entries_{0};
};

}  // namespace gkx::mview

#endif  // GKX_MVIEW_ANSWER_CACHE_HPP_
