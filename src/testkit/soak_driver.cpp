#include "testkit/soak_driver.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/check.hpp"
#include "mview/subscription.hpp"
#include "testkit/reference_edit.hpp"
#include "xml/serializer.hpp"
#include "xpath/parser.hpp"

namespace gkx::testkit {
namespace {

using service::QueryService;

int64_t SumCounts(const std::map<std::string, int64_t>& counts) {
  int64_t total = 0;
  for (const auto& [name, count] : counts) total += count;
  return total;
}

/// The first `wanted` pool queries a subscription can watch (node-set-typed
/// roots; scalar queries have no added/removed diff).
std::vector<int32_t> PickStandingQueries(const Schedule& schedule, int wanted) {
  std::vector<int32_t> picked;
  for (size_t q = 0; q < schedule.queries.size() &&
                     picked.size() < static_cast<size_t>(std::max(0, wanted));
       ++q) {
    xpath::Query parsed = xpath::MustParse(schedule.queries[q]);
    if (xpath::StaticType(parsed.root()) == xpath::ValueType::kNodeSet) {
      picked.push_back(static_cast<int32_t>(q));
    }
  }
  return picked;
}

/// Applies one delivered diff to the reconstructed state; false if the diff
/// is structurally impossible (removing absent nodes / re-adding present
/// ones — a duplicated, reordered, or corrupted delivery).
bool ApplyDiff(eval::NodeSet* applied, const mview::SubscriptionEvent& event) {
  if (!std::includes(applied->begin(), applied->end(), event.removed.begin(),
                     event.removed.end())) {
    return false;
  }
  for (xml::NodeId node : event.added) {
    if (std::binary_search(applied->begin(), applied->end(), node)) return false;
  }
  eval::NodeSet after_removal;
  std::set_difference(applied->begin(), applied->end(), event.removed.begin(),
                      event.removed.end(), std::back_inserter(after_removal));
  eval::NodeSet next;
  std::set_union(after_removal.begin(), after_removal.end(),
                 event.added.begin(), event.added.end(),
                 std::back_inserter(next));
  *applied = std::move(next);
  return true;
}

class Replay {
 public:
  Replay(const Schedule& schedule, const SoakOptions& options)
      : schedule_(schedule),
        threads_(std::max(1, options.threads)),
        max_reported_(options.max_failures_reported),
        answer_cache_enabled_(options.service.answer_cache_enabled),
        exec_workers_(options.service.exec.workers),
        standing_(PickStandingQueries(schedule, options.standing_queries)),
        oracle_(schedule, standing_) {
    // Compose the eviction observation on top of any caller-provided hook.
    QueryService::Options service_options = options.service;
    auto caller_hook = service_options.plan_cache.on_evict;
    service_options.plan_cache.on_evict =
        [this, caller_hook](const std::string& key) {
          observed_evictions_.fetch_add(1, std::memory_order_relaxed);
          if (caller_hook) caller_hook(key);
        };
    service_ = std::make_unique<QueryService>(service_options);

    max_rev_.reserve(schedule.revisions.size());
    for (size_t d = 0; d < schedule.revisions.size(); ++d) {
      GKX_CHECK(service_
                    ->RegisterDocument(schedule.doc_keys[d],
                                       xml::Document(schedule.revisions[d][0]))
                    .ok());
      max_rev_.push_back(static_cast<int32_t>(schedule.revisions[d].size()) - 1);
    }

    // Standing queries watch the whole corpus; deliveries are collected per
    // (subscription, document) in arrival order (delivery per subscription
    // is serialized by the manager, so arrival order == delivery order).
    for (int32_t query : standing_) {
      auto subscribed = service_->Subscribe(
          "doc*", schedule.queries[static_cast<size_t>(query)],
          [this](const mview::SubscriptionEvent& event) {
            observed_deliveries_.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(events_mu_);
            events_[{event.subscription, event.doc_key}].push_back(event);
          });
      GKX_CHECK(subscribed.ok());
      subs_.emplace_back(*subscribed, query);
    }
  }

  SoakReport Run() {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t] { Worker(t); });
    }
    for (auto& worker : workers) worker.join();
    // Churn has stopped; drain pending subscription evaluations so the
    // collected diff streams (and the fired counter) are final.
    service_->FlushSubscriptions();

    SoakReport report;
    report.seed = schedule_.seed;
    report.threads = threads_;
    report.operations = static_cast<int64_t>(schedule_.operations.size());
    report.requests = requests_.load();
    report.oracle_evaluations = oracle_.evaluations();
    report.divergences = divergences_.load();
    report.errors = errors_.load();
    report.patches = patches_.load();
    report.patch_divergences = patch_divergences_.load();
    report.stats = service_->Stats();
    report.stats_json = service_->ExportStats(service::StatsFormat::kJson);
    CheckFinalDocuments(&report);
    CheckSubscriptions(&report);
    CheckStats(&report);
    {
      std::lock_guard<std::mutex> lock(failures_mu_);
      report.failures = failures_;
    }
    return report;
  }

 private:
  void Worker(int thread) {
    // Same-thread churn is visible to later reads on this thread (the store
    // mutex orders Put before Get); that is the lower edge of the window.
    std::vector<int32_t> watermark(schedule_.revisions.size(), 0);
    for (size_t i = 0; i < schedule_.operations.size(); ++i) {
      const Operation& op = schedule_.operations[i];
      // Churn is pinned by document so per-document revisions are installed
      // in schedule order; everything else is dealt round-robin.
      const bool churn = op.kind == Operation::Kind::kAddDocument ||
                         op.kind == Operation::Kind::kEditDocument;
      const bool mine =
          churn ? op.doc % threads_ == thread
                : static_cast<int>(i % static_cast<size_t>(threads_)) == thread;
      if (!mine) continue;

      switch (op.kind) {
        case Operation::Kind::kAddDocument: {
          const size_t doc = static_cast<size_t>(op.doc);
          GKX_CHECK(
              service_
                  ->RegisterDocument(
                      schedule_.doc_keys[doc],
                      xml::Document(
                          schedule_.revisions[doc][static_cast<size_t>(
                              op.revision)]))
                  .ok());
          watermark[doc] = op.revision;
          break;
        }
        case Operation::Kind::kEditDocument: {
          const size_t doc = static_cast<size_t>(op.doc);
          patches_.fetch_add(1, std::memory_order_relaxed);
          GKX_CHECK(
              service_->UpdateDocument(schedule_.doc_keys[doc], op.edit).ok());
          watermark[doc] = op.revision;
          // Differential: this thread is the document's only writer, so the
          // store now holds exactly what the patch produced — which must be
          // node-for-node the schedule's precomputed revision (the one the
          // oracle answers are keyed on, and the one the compile step
          // already checked against a from-scratch rebuild).
          auto stored = service_->documents().Get(schedule_.doc_keys[doc]);
          std::string why;
          if (stored == nullptr ||
              !ExhaustiveEquals(
                  stored->doc(),
                  schedule_.revisions[doc][static_cast<size_t>(op.revision)],
                  &why)) {
            patch_divergences_.fetch_add(1, std::memory_order_relaxed);
            std::ostringstream message;
            message << "patch divergence: seed=" << schedule_.seed
                    << " op=" << i << " thread=" << thread << " doc="
                    << schedule_.doc_keys[doc] << " revision=" << op.revision
                    << " " << (stored == nullptr ? "document vanished" : why)
                    << " | replay: CompileWorkload(seed=" << schedule_.seed
                    << ")";
            RecordFailure(message.str());
          }
          break;
        }
        case Operation::Kind::kSubmit: {
          const auto [doc, query] = op.requests.front();
          requests_.fetch_add(1, std::memory_order_relaxed);
          auto response =
              service_->Submit(schedule_.doc_keys[static_cast<size_t>(doc)],
                               schedule_.queries[static_cast<size_t>(query)]);
          CheckAnswer(i, thread, doc, query,
                      watermark[static_cast<size_t>(doc)], response);
          break;
        }
        case Operation::Kind::kBatch: {
          std::vector<QueryService::Request> batch;
          batch.reserve(op.requests.size());
          for (const auto& [doc, query] : op.requests) {
            batch.push_back(
                {schedule_.doc_keys[static_cast<size_t>(doc)],
                 schedule_.queries[static_cast<size_t>(query)]});
          }
          requests_.fetch_add(static_cast<int64_t>(batch.size()),
                              std::memory_order_relaxed);
          auto responses = service_->SubmitBatch(batch);
          for (size_t r = 0; r < responses.size(); ++r) {
            const auto [doc, query] = op.requests[r];
            CheckAnswer(i, thread, doc, query,
                        watermark[static_cast<size_t>(doc)], responses[r]);
          }
          break;
        }
      }
    }
  }

  void CheckAnswer(size_t op_index, int thread, int32_t doc, int32_t query,
                   int32_t rev_lo, const Result<QueryService::Answer>& response) {
    const int32_t rev_hi = max_rev_[static_cast<size_t>(doc)];
    if (!response.ok()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream message;
      message << "error: seed=" << schedule_.seed << " op=" << op_index
              << " thread=" << thread << " doc="
              << schedule_.doc_keys[static_cast<size_t>(doc)] << " query='"
              << schedule_.queries[static_cast<size_t>(query)]
              << "' status=" << response.status().ToString();
      RecordFailure(message.str());
      return;
    }
    const std::string digest = AnswerDigest(response->value);
    if (oracle_.MatchesAnyRevision(doc, rev_lo, rev_hi, query, digest)) return;
    divergences_.fetch_add(1, std::memory_order_relaxed);
    std::ostringstream message;
    message << "divergence: seed=" << schedule_.seed << " op=" << op_index
            << " thread=" << thread << " doc="
            << schedule_.doc_keys[static_cast<size_t>(doc)] << " query='"
            << schedule_.queries[static_cast<size_t>(query)]
            << "' evaluator=" << response->evaluator << " rev_window=["
            << rev_lo << "," << rev_hi << "] got=" << digest
            << " want(rev" << rev_hi << ")="
            << oracle_.Expected(doc, rev_hi, query)
            << " | replay: CompileWorkload(seed=" << schedule_.seed << ")";
    RecordFailure(message.str());
  }

  /// Lost-update check: churn per document is single-threaded, so the final
  /// store state must be exactly the highest revision, byte for byte.
  void CheckFinalDocuments(SoakReport* report) {
    for (size_t d = 0; d < schedule_.revisions.size(); ++d) {
      auto stored = service_->documents().Get(schedule_.doc_keys[d]);
      const xml::Document& expected = schedule_.revisions[d].back();
      if (stored != nullptr && xml::SerializeDocument(stored->doc()) ==
                                   xml::SerializeDocument(expected)) {
        continue;
      }
      ++report->lost_updates;
      std::ostringstream message;
      message << "lost update: seed=" << schedule_.seed << " doc="
              << schedule_.doc_keys[d] << " final store state is not revision "
              << schedule_.revisions[d].size() - 1;
      RecordFailure(message.str());
    }
  }

  /// Re-applies each (subscription, document) diff stream from the empty
  /// set: every intermediate state must be the oracle answer at *some*
  /// revision (diffs are coalesced snapshots of states that really
  /// existed), and the final state must match the highest revision.
  void CheckSubscriptions(SoakReport* report) {
    report->subscriptions = static_cast<int64_t>(subs_.size());
    report->subscription_events = observed_deliveries_.load();
    if (subs_.empty()) return;
    auto violation = [this, report](int64_t sub, int32_t doc, int32_t query,
                                    size_t event_index, const std::string& what,
                                    const std::string& digest) {
      ++report->subscription_violations;
      std::ostringstream message;
      message << "subscription violation: seed=" << schedule_.seed
              << " op=post-join sub=" << sub << " doc="
              << schedule_.doc_keys[static_cast<size_t>(doc)] << " query='"
              << schedule_.queries[static_cast<size_t>(query)] << "' event="
              << event_index << " " << what << " state=" << digest
              << " | replay: CompileWorkload(seed=" << schedule_.seed << ")";
      RecordFailure(message.str());
    };
    for (const auto& [sub_id, query] : subs_) {
      for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
        const int32_t doc = static_cast<int32_t>(d);
        const int32_t hi = max_rev_[d];
        eval::NodeSet applied;
        auto it = events_.find({sub_id, schedule_.doc_keys[d]});
        if (it != events_.end()) {
          for (size_t e = 0; e < it->second.size(); ++e) {
            if (!ApplyDiff(&applied, it->second[e])) {
              violation(sub_id, doc, query, e,
                        "diff removes absent / re-adds present nodes",
                        AnswerDigest(eval::Value::Nodes(eval::NodeSet(applied))));
              break;
            }
            const std::string digest =
                AnswerDigest(eval::Value::Nodes(eval::NodeSet(applied)));
            if (!oracle_.MatchesAnyRevision(doc, 0, hi, query, digest)) {
              violation(sub_id, doc, query, e,
                        "state matches no revision's oracle answer", digest);
            }
          }
        }
        const std::string final_digest =
            AnswerDigest(eval::Value::Nodes(std::move(applied)));
        if (final_digest != oracle_.Expected(doc, hi, query)) {
          violation(sub_id, doc, query,
                    it == events_.end() ? 0 : it->second.size(),
                    "final state != highest revision (want " +
                        oracle_.Expected(doc, hi, query) + ")",
                    final_digest);
        }
      }
    }
  }

  void CheckStats(SoakReport* report) {
    const service::ServiceStats& stats = report->stats;
    int64_t batch_ops = 0;
    for (const Operation& op : schedule_.operations) {
      if (op.kind == Operation::Kind::kBatch) ++batch_ops;
    }
    auto require = [this, report](bool condition, const std::string& what) {
      if (condition) return;
      ++report->stats_violations;
      RecordFailure("stats inconsistency: seed=" +
                    std::to_string(schedule_.seed) + " " + what);
    };
    require(report->requests == schedule_.total_requests,
            "executed requests != schedule total");
    require(stats.requests == report->requests,
            "service request counter != executed requests");
    require(stats.batches == batch_ops, "batch counter != batch operations");
    require(stats.failures == report->errors,
            "failure counter != observed errors");
    require(stats.plan_cache.parse_failures == 0,
            "parse failures on a parse-checked pool");
    require(stats.plan_cache.Lookups() == stats.requests,
            "hits+canonical_hits+misses+parse_failures != requests");
    require(stats.latency.count == stats.requests - stats.failures,
            "latency histogram count != successful requests");
    // Staged-executor accounting: every segment a staged run dispatched
    // landed in exactly one of the parallel/sequential/skipped buckets —
    // also when segments executed concurrently (exec.workers > 1; the
    // parallel soak rounds run this way under TSan).
    require(stats.exec_parallel_segments + stats.exec_sequential_segments +
                    stats.exec_skipped_segments ==
                stats.staged_segments,
            "exec parallel+sequential+skipped buckets != staged segments");
    require(stats.staged_segments <= SumCounts(stats.segment_route_counts),
            "staged segments exceed total segment dispatches");
    if (exec_workers_ <= 1) {
      require(stats.exec_parallel_segments == 0,
              "parallel segments recorded with exec.workers <= 1");
    }
    require(stats.plan_cache.evictions == observed_evictions_.load(),
            "eviction counter != evictions observed via on_evict");
    require(stats.plan_cache_entries <= service_->plan_cache().capacity_bound(),
            "plan cache exceeded its capacity bound");
    if (answer_cache_enabled_ && report->errors == 0) {
      require(stats.answer_cache.hits + stats.answer_cache.misses ==
                  stats.requests - stats.failures,
              "answer cache lookups != successful requests");
      require(stats.answer_cache.inserts + stats.answer_cache.declined ==
                  stats.answer_cache.misses,
              "answer cache misses don't reconcile to inserts + declines");
      require(stats.answer_cache.entries <=
                  static_cast<int64_t>(service_->answer_cache().capacity_bound()),
              "answer cache exceeded its capacity bound");
      require(stats.answer_cache.bytes >= 0,
              "answer cache byte gauge went negative");
    }
    require(stats.subscriptions.fired == observed_deliveries_.load(),
            "subscription fired counter != deliveries observed");
    require(stats.subscriptions.active == static_cast<int64_t>(subs_.size()),
            "active subscription gauge != registered standing queries");
  }

  void RecordFailure(std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu_);
    if (failures_.size() < max_reported_) failures_.push_back(std::move(message));
  }

  const Schedule& schedule_;
  const int threads_;
  const size_t max_reported_;
  const bool answer_cache_enabled_;
  const int exec_workers_;
  std::vector<int32_t> standing_;  // pool indexes (before oracle_: init order)
  Oracle oracle_;
  std::unique_ptr<QueryService> service_;
  std::vector<std::pair<int64_t, int32_t>> subs_;  // (subscription id, query)
  std::vector<int32_t> max_rev_;
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> divergences_{0};
  std::atomic<int64_t> errors_{0};
  std::atomic<int64_t> patches_{0};
  std::atomic<int64_t> patch_divergences_{0};
  std::atomic<int64_t> observed_evictions_{0};
  std::atomic<int64_t> observed_deliveries_{0};
  std::mutex events_mu_;
  std::map<std::pair<int64_t, std::string>, std::vector<mview::SubscriptionEvent>>
      events_;
  std::mutex failures_mu_;
  std::vector<std::string> failures_;
};

}  // namespace

std::string SoakReport::Summary() const {
  std::ostringstream out;
  out << "soak seed=" << seed << ": " << operations << " ops (" << requests
      << " requests) on " << threads << " threads, oracle="
      << oracle_evaluations << " evals — "
      << (ok() ? "PASS" : "FAIL") << " (divergences=" << divergences
      << " errors=" << errors << " lost_updates=" << lost_updates
      << " patches=" << patches
      << " patch_divergences=" << patch_divergences
      << " stats_violations=" << stats_violations
      << " subscription_violations=" << subscription_violations
      << "); plan cache hit rate " << stats.plan_cache.HitRate()
      << ", answer cache hit rate " << stats.answer_cache.HitRate() << " ("
      << stats.answer_cache.invalidations << " invalidated, "
      << stats.answer_cache.retained << " retained), " << subscriptions
      << " standing queries (" << subscription_events << " diffs, "
      << stats.subscriptions.coalesced << " coalesced)";
  for (const std::string& failure : failures) out << "\n  " << failure;
  return out.str();
}

SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options) {
  Replay replay(schedule, options);
  return replay.Run();
}

}  // namespace gkx::testkit
