#include "service/plan_cache.hpp"

#include <functional>
#include <utility>

#include "plan/physical.hpp"
#include "xpath/parser.hpp"

namespace gkx::service {

PlanCache::PlanCache(const Options& options) : on_evict_(options.on_evict) {
  size_t shards = options.shards == 0 ? 1 : options.shards;
  size_t capacity = options.capacity == 0 ? 1 : options.capacity;
  if (shards > capacity) shards = capacity;
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

PlanCache::PlanPtr PlanCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->plan;
}

PlanCache::PlanPtr PlanCache::Insert(const std::string& key, PlanPtr plan) {
  Shard& shard = ShardFor(key);
  std::vector<std::string> evicted;
  PlanPtr resident;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // A concurrent compile of the same text won; share its plan.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->plan;
    }
    shard.lru.push_front(Entry{key, std::move(plan)});
    shard.map.emplace(key, shard.lru.begin());
    while (shard.lru.size() > per_shard_capacity_) {
      if (on_evict_) evicted.push_back(shard.lru.back().key);
      shard.map.erase(shard.lru.back().key);
      shard.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    resident = shard.lru.front().plan;
  }
  // Observation happens outside the shard lock so a callback may re-enter.
  if (on_evict_) {
    for (const std::string& victim : evicted) on_evict_(victim);
  }
  return resident;
}

Result<std::shared_ptr<const eval::Engine::Plan>> PlanCache::GetOrCompile(
    const std::string& query_text) {
  if (PlanPtr plan = Lookup(query_text)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return plan;
  }

  auto parsed = xpath::ParseQuery(query_text);
  if (!parsed.ok()) {
    parse_failures_.fetch_add(1, std::memory_order_relaxed);
    return parsed.status();
  }

  // Stage 1 (normalize) yields both the query the plan is lowered from and
  // the canonical alias key — one normal form for cache aliasing and
  // planning, so every spelling in an equivalence class shares ONE physical
  // plan.
  plan::Normalized normalized = plan::Normalize(std::move(*parsed));
  const std::string canonical = normalized.canonical_text;
  if (canonical != query_text) {
    if (PlanPtr plan = Lookup(canonical)) {
      // Equivalent spelling compiled before; alias the raw text to it.
      canonical_hits_.fetch_add(1, std::memory_order_relaxed);
      return Insert(query_text, std::move(plan));
    }
  }

  // Stage 2: per-step routing and segment fusion.
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto plan = std::make_shared<const eval::Engine::Plan>(
      plan::Lower(std::move(normalized)));
  // Adopt the resident canonical plan: if a concurrent compile of an
  // equivalent spelling won the race, aliasing the raw text to OUR plan
  // would leave two Plan objects for one equivalence class.
  if (canonical != query_text) plan = Insert(canonical, std::move(plan));
  return Insert(query_text, std::move(plan));
}

PlanCache::Counters PlanCache::counters() const {
  Counters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.canonical_hits = canonical_hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.parse_failures = parse_failures_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

size_t PlanCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

void PlanCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->map.clear();
    shard->lru.clear();
  }
}

}  // namespace gkx::service
