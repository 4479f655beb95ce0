#include "mview/answer_cache.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace gkx::mview {

namespace {

/// Approximate payload bytes of a cached answer (entry bookkeeping plus the
/// variable-size value payload; exactness is not the point, stability is).
/// The key counts as its two strings plus one separator byte.
int64_t AnswerBytes(std::string_view doc_key, std::string_view canonical_text,
                    const eval::Engine::Answer& answer) {
  int64_t bytes = static_cast<int64_t>(
      sizeof(CachedAnswer) + doc_key.size() + 1 + canonical_text.size() +
      answer.evaluator.size());
  switch (answer.value.type()) {
    case xpath::ValueType::kNodeSet:
      bytes += static_cast<int64_t>(answer.value.nodes().size() *
                                    sizeof(xml::NodeId));
      break;
    case xpath::ValueType::kString:
      bytes += static_cast<int64_t>(answer.value.string().size());
      break;
    case xpath::ValueType::kBoolean:
    case xpath::ValueType::kNumber:
      break;
  }
  return bytes;
}

}  // namespace

AnswerCache::AnswerCache(const Options& options) : options_(options) {
  size_t shards = options.shards == 0 ? 1 : options.shards;
  size_t capacity = options.capacity == 0 ? 1 : options.capacity;
  if (shards > capacity) shards = capacity;
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  per_shard_bytes_ = static_cast<int64_t>(
      (options.byte_budget == 0 ? 1 : options.byte_budget) / shards);
  if (per_shard_bytes_ < 1) per_shard_bytes_ = 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t AnswerCache::EntryKeyHash::operator()(const EntryKey& key) const {
  const size_t doc = std::hash<std::string_view>{}(key.doc_key);
  const size_t text = std::hash<std::string_view>{}(key.canonical_text);
  return doc ^ (text + 0x9e3779b97f4a7c15ULL + (doc << 6) + (doc >> 2));
}

AnswerCache::Shard& AnswerCache::ShardFor(std::string_view doc_key) {
  // Shard by document key (not the full entry key): one document's entries
  // share a shard, so OnDocumentUpdate walks exactly one bucket.
  return *shards_[std::hash<std::string_view>{}(doc_key) % shards_.size()];
}

void AnswerCache::EraseLocked(Shard& shard, std::list<Entry>::iterator it) {
  shard.bytes -= it->cached->bytes;
  bytes_.fetch_sub(it->cached->bytes, std::memory_order_relaxed);
  entries_.fetch_sub(1, std::memory_order_relaxed);
  shard.map.erase(EntryKey{it->doc_key, it->canonical_text});
  shard.lru.erase(it);
}

std::shared_ptr<const CachedAnswer> AnswerCache::Lookup(
    std::string_view doc_key, int64_t revision,
    std::string_view canonical_text) {
  Shard& shard = ShardFor(doc_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(EntryKey{doc_key, canonical_text});
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (it->second->revision != revision) {
    if (it->second->revision < revision) {
      // Stale straggler: revisions are store-wide monotonic, so an entry
      // older than the caller's snapshot can never become current again.
      EraseLocked(shard, it->second);
    }
    // A NEWER resident entry means the *caller* is the straggler (it holds
    // a pre-update document snapshot while a fresh insert already landed).
    // Leave the entry in place for current readers — evicting it would let
    // one slow reader thrash the cache under churn.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->cached;
}

void AnswerCache::Insert(const std::string& doc_key, int64_t revision,
                         const std::string& canonical_text,
                         const eval::Engine::Answer& answer,
                         const plan::Footprint& footprint) {
  const int64_t bytes = AnswerBytes(doc_key, canonical_text, answer);
  if (bytes > static_cast<int64_t>(options_.max_entry_bytes) ||
      bytes > per_shard_bytes_) {
    declined_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto cached = std::make_shared<CachedAnswer>();
  cached->answer = answer;
  cached->bytes = bytes;

  Shard& shard = ShardFor(doc_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(EntryKey{doc_key, canonical_text});
  if (it != shard.map.end()) {
    if (it->second->revision > revision) {
      // The mirror of the Lookup rule: a reader that evaluated against a
      // pre-update snapshot must not clobber the entry a current reader
      // already installed. Declined, so every miss still reconciles to an
      // insert or a decline.
      declined_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    EraseLocked(shard, it->second);
  }
  shard.lru.push_front(
      Entry{doc_key, canonical_text, revision, footprint, std::move(cached)});
  const Entry& entry = shard.lru.front();
  shard.map.emplace(EntryKey{entry.doc_key, entry.canonical_text},
                    shard.lru.begin());
  shard.bytes += bytes;
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  while (shard.lru.size() > per_shard_capacity_ ||
         shard.bytes > per_shard_bytes_) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool AnswerCache::RemapLocked(Entry& entry, const xml::DocumentDelta& delta) {
  if (delta.shift() == 0) return false;
  const eval::Value& value = entry.cached->answer.value;
  if (!value.is_node_set()) return false;
  const eval::NodeSet& nodes = value.nodes();
  // Retained entries provably select no region node (plan/footprint.hpp),
  // so the answer splits cleanly at the old region's end: ids before the
  // region stand, ids at or after it shift by the delta's constant.
  const xml::NodeId boundary = delta.begin + delta.old_count;
  auto first_shifted = std::lower_bound(nodes.begin(), nodes.end(), boundary);
  if (first_shifted == nodes.end()) return false;
  eval::NodeSet shifted(nodes.begin(), nodes.end());
  for (auto it = shifted.begin() + (first_shifted - nodes.begin());
       it != shifted.end(); ++it) {
    *it += delta.shift();
  }
  auto remapped = std::make_shared<CachedAnswer>();
  remapped->answer = entry.cached->answer;
  remapped->answer.value = eval::Value::Nodes(std::move(shifted));
  remapped->bytes = entry.cached->bytes;  // same node count, same accounting
  entry.cached = std::move(remapped);
  remapped_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AnswerCache::UpdateImpact AnswerCache::OnDocumentUpdate(
    const std::string& doc_key, int64_t old_revision, int64_t new_revision,
    const std::vector<std::string>& changed_names,
    const xml::DocumentDelta* delta) {
  UpdateImpact impact;
  const bool replacement = old_revision >= 0 && new_revision >= 0;
  if (options_.mode == InvalidationMode::kFlushAll) {
    // The baseline mode: any update empties the whole cache. Shards are
    // locked one at a time (never nested) so concurrent updates in
    // different shards cannot deadlock.
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      while (!shard->lru.empty()) {
        EraseLocked(*shard, std::prev(shard->lru.end()));
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        ++impact.invalidated;
      }
    }
    return impact;
  }
  // The injected delta defect: subtree updates skip invalidation (and the
  // id remap) wholesale — entries survive stale. Whole-document updates are
  // untouched, so exactly the delta machinery is on trial.
  const bool fault_retain_all =
      options_.fault_ignore_footprints ||
      (options_.fault_ignore_delta && delta != nullptr);
  Shard& shard = ShardFor(doc_key);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    auto next = std::next(it);
    if (it->doc_key == doc_key) {
      const bool retain =
          replacement && options_.mode == InvalidationMode::kFootprint &&
          it->revision == old_revision &&
          (fault_retain_all ||
           !it->footprint.AffectedBy(changed_names, delta));
      if (retain) {
        it->revision = new_revision;
        retained_.fetch_add(1, std::memory_order_relaxed);
        ++impact.retained;
        if (delta != nullptr && delta->structure_changed() &&
            !fault_retain_all) {
          if (RemapLocked(*it, *delta)) ++impact.remapped;
        }
      } else {
        EraseLocked(shard, it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        ++impact.invalidated;
      }
    }
    it = next;
  }
  return impact;
}

AnswerCache::Counters AnswerCache::counters() const {
  Counters out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.retained = retained_.load(std::memory_order_relaxed);
  out.remapped = remapped_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.declined = declined_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  out.entries = entries_.load(std::memory_order_relaxed);
  return out;
}

size_t AnswerCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

void AnswerCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    while (!shard->lru.empty()) {
      EraseLocked(*shard, std::prev(shard->lru.end()));
    }
  }
}

}  // namespace gkx::mview
