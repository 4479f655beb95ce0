// The compile half of the query service: an LRU cache from query text to
// compiled physical plans (plan::Physical — normalize + per-step routing
// and segment lowering; see plan/ir.hpp). A plan is document-independent,
// so one cache serves every registered document.
//
// Two-level keying. A lookup first tries the raw query text — a hit skips
// the whole compile pipeline (`hits`). On a raw miss the text is parsed and
// normalized (plan::Normalize — the same canonical form
// xpath::CanonicalXPathString prints); if an equivalent spelling was
// compiled before, that plan is reused (`canonical_hits` — the parse and
// normalize happened, but lowering and the plan slot are shared) and the
// raw text is inserted as an alias so the next lookup is a first-level hit.
//
// Every spelling in an equivalence class shares ONE plan, compiled from the
// canonical (optimized) AST. Values are identical to evaluating the raw
// text — Optimize is semantics-preserving (the metamorphic suite's
// invariant) — and canonicalization may land the class in a *smaller*
// fragment than a pessimized spelling ("/descendant::a[true()]" runs as
// PF "/descendant::a"), so the plan's fragment report and evaluator choice
// describe the canonical form, not the surface syntax.
//
// Thread safety: buckets are sharded by key hash, one mutex per shard, so
// concurrent Submits on different queries rarely contend. Plans are handed
// out as shared_ptr<const Plan>; eviction never invalidates in-flight users.

#ifndef GKX_SERVICE_PLAN_CACHE_HPP_
#define GKX_SERVICE_PLAN_CACHE_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.hpp"
#include "eval/engine.hpp"

namespace gkx::service {

class PlanCache {
 public:
  struct Options {
    /// Maximum cached entries (aliases count as entries), across all shards.
    size_t capacity = 512;
    /// Number of independently locked buckets.
    size_t shards = 8;
    /// Observation hook: called with each evicted key, after the shard lock
    /// is released (so the callback may re-enter the cache). Must be
    /// thread-safe; the soak harness uses it to reconcile the eviction
    /// counter against observed evictions. nullptr = no observation.
    std::function<void(const std::string& evicted_key)> on_evict;
  };

  struct Counters {
    int64_t hits = 0;            // raw-text hits (no parse at all)
    int64_t canonical_hits = 0;  // parsed, but plan shared via canonical key
    int64_t misses = 0;          // full compile
    int64_t parse_failures = 0;  // compile failed (nothing cached)
    int64_t evictions = 0;

    int64_t Lookups() const {
      return hits + canonical_hits + misses + parse_failures;
    }
    double HitRate() const {
      const int64_t lookups = Lookups();
      return lookups == 0
                 ? 0.0
                 : static_cast<double>(hits + canonical_hits) /
                       static_cast<double>(lookups);
    }
  };

  PlanCache() : PlanCache(Options{}) {}
  explicit PlanCache(const Options& options);

  /// The cached plan for `query_text`, compiling and caching on miss.
  /// Parse errors are returned (and counted) but not cached.
  Result<std::shared_ptr<const eval::Engine::Plan>> GetOrCompile(
      const std::string& query_text);

  Counters counters() const;

  /// Entries currently cached (including aliases).
  size_t size() const;

  /// Hard bound on size(): per-shard capacity × shard count. May round the
  /// configured capacity up so every shard holds at least one entry.
  size_t capacity_bound() const { return per_shard_capacity_ * shards_.size(); }

  void Clear();

 private:
  using PlanPtr = std::shared_ptr<const eval::Engine::Plan>;

  struct Entry {
    std::string key;
    PlanPtr plan;
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map;
  };

  Shard& ShardFor(const std::string& key);

  /// Looks `key` up in its shard; bumps LRU on hit.
  PlanPtr Lookup(const std::string& key);

  /// Inserts (or refreshes) key -> plan, evicting LRU entries over capacity.
  /// Returns the resident plan (an existing entry wins races).
  PlanPtr Insert(const std::string& key, PlanPtr plan);

  size_t per_shard_capacity_ = 0;
  std::function<void(const std::string&)> on_evict_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> canonical_hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> parse_failures_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_PLAN_CACHE_HPP_
