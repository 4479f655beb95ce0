#include "service/sharded_service.hpp"

#include <atomic>
#include <exception>
#include <iterator>
#include <utility>

#include "base/check.hpp"
#include "obs/json.hpp"

namespace gkx::service {

ShardedQueryService::ShardedQueryService(const Options& options)
    : options_(options), map_(options.shards) {
  GKX_CHECK(options.shard.wal_dir.empty());  // configure via Options::wal_dir
  pool_ = options.pool != nullptr     ? options.pool
          : options.shard.pool != nullptr ? options.shard.pool
                                          : &ThreadPool::Shared();
  shards_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    QueryService::Options shard_options = options.shard;
    if (!options.wal_dir.empty()) {
      shard_options.wal_dir = options.wal_dir + "/shard" + std::to_string(i);
    }
    shards_.push_back(std::make_unique<QueryService>(shard_options));
  }
}

// ---------------------------------------------------------------- corpus

Status ShardedQueryService::RegisterDocument(std::string key,
                                             xml::Document doc) {
  QueryService& shard = Owner(key);
  return shard.RegisterDocument(std::move(key), std::move(doc));
}

Status ShardedQueryService::RegisterXml(std::string key,
                                        std::string_view xml) {
  QueryService& shard = Owner(key);
  return shard.RegisterXml(std::move(key), xml);
}

Status ShardedQueryService::UpdateDocument(std::string_view key,
                                           const xml::SubtreeEdit& edit) {
  return Owner(key).UpdateDocument(key, edit);
}

bool ShardedQueryService::RemoveDocument(std::string_view key) {
  return Owner(key).RemoveDocument(key);
}

size_t ShardedQueryService::document_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->documents().size();
  return total;
}

// ---------------------------------------------------------------- queries

Result<ShardedQueryService::Answer> ShardedQueryService::Submit(
    const std::string& doc_key, const std::string& query_text) {
  return Owner(doc_key).Submit(doc_key, query_text);
}

std::vector<Result<ShardedQueryService::Answer>>
ShardedQueryService::SubmitBatch(const std::vector<Request>& requests) {
  if (shards_.size() == 1) return shards_[0]->SubmitBatch(requests);

  // One batch loop over the whole batch: each request goes straight to its
  // owning shard's request path. A shard counts one batch when it first
  // sees a request of this one, and an exception out of any of its
  // requests fails the shard for the rest of the batch.
  struct ShardState {
    std::atomic<bool> active{false};
    std::atomic<bool> failed{false};
    std::string failure;  // written once, by whoever set `failed`
  };
  std::vector<ShardState> states(shards_.size());
  std::vector<Result<Answer>> responses(requests.size(),
                                        QueryService::Unserved());
  auto fail = [](ShardState& state, std::string what) {
    if (!state.failed.exchange(true)) state.failure = std::move(what);
  };
  // The shard template's batch_workers sets the width.
  QueryService::RunBatch(
      *pool_, shards_[0]->options_.batch_workers, requests.size(),
      [&](eval::Engine& engine, size_t i) {
        const Request& request = requests[i];
        const size_t s = static_cast<size_t>(map_.ShardOf(request.doc_key));
        QueryService& shard = *shards_[s];
        ShardState& state = states[s];
        if (!state.active.load() && !state.active.exchange(true)) {
          shard.batches_->Add();
        }
        if (state.failed.load()) return false;
        bool evaluated = false;
        try {
          responses[i] =
              shard.Process(engine, request.doc_key, request.query, &evaluated);
        } catch (const std::exception& e) {
          fail(state, std::string(": ") + e.what());
        } catch (...) {
          fail(state, "");
        }
        return evaluated;
      });

  // Partial failure: a failed shard's slots all carry its error, including
  // those it answered before the throw; sibling shards' answers stand.
  for (size_t s = 0; s < states.size(); ++s) {
    if (!states[s].failed.load()) continue;
    const Status failure = InternalError(
        "shard " + std::to_string(s) + " sub-batch failed" + states[s].failure);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (static_cast<size_t>(map_.ShardOf(requests[i].doc_key)) == s) {
        responses[i] = failure;
      }
    }
  }
  return responses;
}

// ---------------------------------------------------------- subscriptions

Result<int64_t> ShardedQueryService::Subscribe(
    std::string doc_selector, const std::string& query_text,
    mview::SubscriptionCallback callback) {
  auto merged = std::make_shared<MergedSubscription>();
  merged->callback = std::move(callback);
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    merged->id = next_subscription_id_++;
  }
  // Every member shard delivers through this one fan-in: the event's
  // shard-level id is rewritten to the router id and the caller's callback
  // runs under one mutex, so deliveries from different shards never overlap
  // and per-document order (one shard, serialized per member) is preserved.
  auto fan_in = [merged](const mview::SubscriptionEvent& event) {
    mview::SubscriptionEvent rewritten = event;
    rewritten.subscription = merged->id;
    std::lock_guard<std::mutex> lock(merged->mu);
    merged->callback(rewritten);
  };

  const bool prefix =
      !doc_selector.empty() && doc_selector.back() == '*';
  std::vector<std::pair<int, int64_t>> members;
  auto subscribe_on = [&](int shard_index) -> Status {
    Result<int64_t> member =
        shards_[static_cast<size_t>(shard_index)]->Subscribe(
            doc_selector, query_text, fan_in);
    if (!member.ok()) return member.status();
    members.emplace_back(shard_index, *member);
    return Status::Ok();
  };
  if (prefix) {
    // A prefix selector can match keys on any shard.
    for (int s = 0; s < shard_count(); ++s) {
      Status status = subscribe_on(s);
      if (!status.ok()) {
        for (const auto& [shard_index, member_id] : members) {
          shards_[static_cast<size_t>(shard_index)]->Unsubscribe(member_id);
        }
        return status;
      }
    }
  } else {
    // Exact key: only the owning shard can ever match.
    GKX_RETURN_IF_ERROR(subscribe_on(map_.ShardOf(doc_selector)));
  }

  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_[merged->id] = std::move(members);
  }
  return merged->id;
}

bool ShardedQueryService::Unsubscribe(int64_t subscription_id) {
  std::vector<std::pair<int, int64_t>> members;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    auto it = subs_.find(subscription_id);
    if (it == subs_.end()) return false;
    members = std::move(it->second);
    subs_.erase(it);
  }
  bool ok = true;
  for (const auto& [shard_index, member_id] : members) {
    ok = shards_[static_cast<size_t>(shard_index)]->Unsubscribe(member_id) && ok;
  }
  return ok;
}

void ShardedQueryService::FlushSubscriptions() {
  for (const auto& shard : shards_) shard->FlushSubscriptions();
}

// ------------------------------------------------------------------ admin

obs::json::Value ShardedQueryService::MergedStatsDocument() const {
  obs::MetricRegistry merged;
  std::vector<obs::SlowQuery> slow_queries;
  for (const auto& shard : shards_) {
    shard->metrics().MergeInto(&merged);
    std::vector<obs::SlowQuery> slow = shard->SlowQueries();
    slow_queries.insert(slow_queries.end(),
                        std::make_move_iterator(slow.begin()),
                        std::make_move_iterator(slow.end()));
  }
  return BuildStatsDocument(merged, options_.shard.obs,
                            options_.shard.answer_cache_enabled, slow_queries);
}

ServiceStats ShardedQueryService::Stats() const {
  return ReadServiceStats(MergedStatsDocument());
}

std::string ShardedQueryService::ExportStats(StatsFormat format) const {
  obs::json::Value root = MergedStatsDocument();
  root["sharding"] = obs::json::Value::Object();
  root["sharding"]["shards"] =
      obs::json::Value(static_cast<int64_t>(shards_.size()));
  obs::json::Value breakdown = obs::json::Value::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    obs::json::Value doc = shards_[i]->ExportStatsDocument();
    doc["shard"] = obs::json::Value(static_cast<int64_t>(i));
    breakdown.Append(std::move(doc));
  }
  root["shards"] = std::move(breakdown);
  return RenderStatsDocument(root, format);
}

Status ShardedQueryService::CheckpointNow() {
  Status first = Status::Ok();
  for (const auto& shard : shards_) {
    Status status = shard->CheckpointNow();
    if (!status.ok() && first.ok()) first = status;
  }
  return first;
}

}  // namespace gkx::service
