#include "testkit/soak_driver.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "base/check.hpp"
#include "mview/subscription.hpp"
#include "service/shard_map.hpp"
#include "service/sharded_service.hpp"
#include "testkit/oracle.hpp"
#include "testkit/reference_edit.hpp"
#include "xpath/parser.hpp"

namespace gkx::testkit {
namespace {

using service::QueryService;
using service::ServiceStats;
using service::ShardedQueryService;

/// Failure messages kept verbatim (the counts are always exact).
constexpr size_t kMaxFailuresReported = 8;

/// The pool query the final durable incarnation asks on every document.
constexpr int32_t kProbeQuery = 0;

bool IsChurn(const Operation& op) {
  return op.kind == Operation::Kind::kAddDocument ||
         op.kind == Operation::Kind::kEditDocument;
}

/// The selector contract as the driver reads it, independently of the
/// SubscriptionManager code under test: a trailing '*' is a key prefix.
bool SelectorMatches(const std::string& selector, const std::string& key) {
  if (!selector.empty() && selector.back() == '*') {
    return std::string_view(key).starts_with(
        std::string_view(selector).substr(0, selector.size() - 1));
  }
  return key == selector;
}

int64_t SumCounts(const std::map<std::string, int64_t>& counts) {
  int64_t total = 0;
  for (const auto& [name, count] : counts) total += count;
  return total;
}

std::string NodesDigest(const eval::NodeSet& nodes) {
  return AnswerDigest(eval::Value::Nodes(eval::NodeSet(nodes)));
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

/// Queries the oracle answers on every document: the standing queries plus
/// the final incarnation's probe.
std::vector<int32_t> WithProbe(std::vector<int32_t> standing) {
  standing.push_back(kProbeQuery);
  return standing;
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

/// A subscription as the driver registered it.
struct Standing {
  int64_t id = 0;
  int32_t query = 0;
  std::string selector;  // "doc*" or one exact key
};

/// What one segment must do to one shard, tallied from the schedule.
struct ShardTally {
  int64_t requests = 0;  // requests routed to the shard
  int64_t batches = 0;   // batch operations touching the shard
  int64_t churn = 0;     // churn operations on documents it owns
  /// Some thread re-reads a (document, query) pair of this shard in a
  /// later operation, on a document the segment never churns: with the
  /// answer cache on and nothing evicted, that read must hit.
  bool warm = false;
};

/// One contiguous slice of the operation list, replayed by one incarnation.
struct Segment {
  int round = 0;
  size_t begin = 0;
  size_t end = 0;
  size_t halfway = 0;            // its thread forces the mid-segment checkpoint
  std::vector<int32_t> start;    // watermark revision per document at begin
  std::vector<int32_t> hi;       // watermark revision per document at end
  std::vector<bool> churned;     // documents the segment churns
  std::vector<ShardTally> tally;
  int64_t requests = 0;
  /// The shard crashed if this round crashes: the owner of a churn op that
  /// the halfway thread runs after its checkpoint, so the victim surely
  /// has a journal suffix to replay (shard 0 when there is none).
  int victim = 0;
};

class Replay {
 public:
  Replay(const Schedule& schedule, const SoakOptions& options)
      : schedule_(schedule),
        options_(options),
        threads_(std::max(1, options.threads)),
        durable_(!options.wal_dir.empty()),
        map_(options.shards),
        standing_(PickStandingQueries(schedule, options.standing_queries)),
        oracle_(schedule, WithProbe(standing_)),
        owned_(static_cast<size_t>(options.shards), 0),
        watermark_(schedule.revisions.size(), 0) {
    GKX_CHECK(options.rounds >= 1);
    GKX_CHECK(options.rounds == 1 || durable_);  // kills need a WAL
    GKX_CHECK(options.service.wal.dir.empty());  // the router lays it out
    for (const std::string& key : schedule.doc_keys) {
      shard_of_.push_back(map_.ShardOf(key));
      ++owned_[static_cast<size_t>(shard_of_.back())];
    }
    report_.seed = schedule.seed;
    report_.threads = threads_;
    report_.shards = options.shards;
    report_.rounds = options.rounds;
    report_.operations = static_cast<int64_t>(schedule.operations.size());
    report_.oracle_evaluations = oracle_.evaluations();
    report_.subscriptions = static_cast<int64_t>(standing_.size());
  }

  SoakReport Run() {
    Open(0);
    for (int round = 0; round < options_.rounds; ++round) {
      const Segment segment = Plan(round);
      RunSegment(segment);
      if (!durable_) continue;
      Kill(segment);
      Open(round + 1);
    }
    if (durable_) Probe(options_.rounds);
    router_.reset();
    report_.requests = requests_.load();
    report_.mutations = mutations_.load();
    report_.patches = patches_.load();
    report_.checkpoints = checkpoints_.load();
    return std::move(report_);
  }

 private:
  int Owner(size_t op_index) const {
    const Operation& op = schedule_.operations[op_index];
    return IsChurn(op) ? op.doc % threads_
                       : static_cast<int>(op_index %
                                          static_cast<size_t>(threads_));
  }

  Segment Plan(int round) const {
    const size_t n = schedule_.operations.size();
    const size_t rounds = static_cast<size_t>(options_.rounds);
    Segment seg;
    seg.round = round;
    seg.begin = n * static_cast<size_t>(round) / rounds;
    seg.end = n * static_cast<size_t>(round + 1) / rounds;
    seg.halfway = seg.begin + (seg.end - seg.begin) / 2;
    seg.start = watermark_;
    seg.hi = watermark_;
    seg.churned.assign(schedule_.doc_keys.size(), false);
    seg.tally.assign(static_cast<size_t>(options_.shards), ShardTally{});
    bool victim_found = false;
    for (size_t i = seg.begin; i < seg.end; ++i) {
      const Operation& op = schedule_.operations[i];
      if (!IsChurn(op)) continue;
      const size_t doc = static_cast<size_t>(op.doc);
      seg.hi[doc] = op.revision;
      seg.churned[doc] = true;
      ++seg.tally[static_cast<size_t>(shard_of_[doc])].churn;
      if (i > seg.halfway && Owner(i) == Owner(seg.halfway) && !victim_found) {
        seg.victim = shard_of_[doc];
        victim_found = true;
      }
    }
    std::set<std::tuple<int, int32_t, int32_t>> seen;  // (thread, doc, query)
    for (size_t i = seg.begin; i < seg.end; ++i) {
      const Operation& op = schedule_.operations[i];
      const int thread = Owner(i);
      std::vector<bool> touched(seg.tally.size(), false);
      for (const auto& [doc, query] : op.requests) {
        const size_t shard =
            static_cast<size_t>(shard_of_[static_cast<size_t>(doc)]);
        ShardTally& tally = seg.tally[shard];
        ++tally.requests;
        ++seg.requests;
        touched[shard] = true;
        if (!seg.churned[static_cast<size_t>(doc)] &&
            seen.count({thread, doc, query}) > 0) {
          tally.warm = true;
        }
      }
      for (const auto& [doc, query] : op.requests) {
        seen.insert({thread, doc, query});
      }
      if (op.kind != Operation::Kind::kBatch) continue;
      for (size_t s = 0; s < touched.size(); ++s) {
        if (touched[s]) ++seg.tally[s].batches;
      }
    }
    return seg;
  }

  /// Builds the next incarnation: the first registers the corpus, every
  /// later one recovers it from the WAL and is checked against the
  /// watermark.
  void Open(int round) {
    observed_evictions_.store(0);
    ShardedQueryService::Options router_options;
    router_options.shards = options_.shards;
    router_options.wal_dir = options_.wal_dir;
    router_options.shard = options_.service;
    auto caller_hook = router_options.shard.plan_cache.on_evict;
    router_options.shard.plan_cache.on_evict =
        [this, caller_hook](const std::string& key) {
          observed_evictions_.fetch_add(1, std::memory_order_relaxed);
          if (caller_hook) caller_hook(key);
        };
    router_ = std::make_unique<ShardedQueryService>(router_options);
    if (round == 0) {
      for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
        Status put = router_->RegisterDocument(
            schedule_.doc_keys[d], xml::Document(schedule_.revisions[d][0]));
        if (!put.ok()) {
          Fail(&SoakReport::errors, round, "error",
               "initial Put of " + schedule_.doc_keys[d] + ": " +
                   put.ToString());
        }
      }
    }
    if (!durable_) return;
    if (round > 0) ++report_.recoveries;
    for (int s = 0; s < options_.shards; ++s) {
      const QueryService& shard = router_->shard(s);
      const std::string who = "shard " + std::to_string(s) + ": ";
      auto violation = [&](const std::string& what) {
        Fail(&SoakReport::recovery_violations, round, "recovery violation",
             who + what);
      };
      if (!shard.wal_status().ok()) {
        violation("wal failed to open: " + shard.wal_status().ToString());
      } else if (!shard.wal_enabled()) {
        violation("wal_dir set but wal_enabled() is false");
      }
      if (round == 0) continue;
      const wal::RecoveryReport& recovered = shard.wal_recovery();
      report_.snapshots_loaded += recovered.snapshots_loaded;
      report_.records_replayed += recovered.records_replayed;
      report_.records_skipped += recovered.records_skipped;
      // Writers were joined before every kill, so each acknowledged record
      // was flushed: a torn tail here is a WAL bug, not a crash artifact.
      if (recovered.torn()) {
        violation("unexpected torn tail (" +
                  std::to_string(recovered.torn_tail_bytes) +
                  " bytes): " + recovered.torn_tail_reason);
      }
      if (crashed_victim_ < 0) continue;
      if (s == crashed_victim_) {
        report_.victim_records_replayed += recovered.records_replayed;
        continue;
      }
      if (recovered.records_replayed != 0) {
        violation("sibling of the crashed shard replayed " +
                  std::to_string(recovered.records_replayed) +
                  " records after its checkpoint");
      }
      if (recovered.snapshots_loaded != owned_[static_cast<size_t>(s)]) {
        violation("sibling of the crashed shard loaded " +
                  std::to_string(recovered.snapshots_loaded) +
                  " snapshots for " +
                  std::to_string(owned_[static_cast<size_t>(s)]) +
                  " documents");
      }
    }
    crashed_victim_ = -1;
    if (round > 0) CheckCorpus(round, "after reopen");
  }

  /// Even rounds close cleanly; odd rounds checkpoint the victim's
  /// siblings and crash only the victim's WAL.
  void Kill(const Segment& seg) {
    if (seg.round % 2 == 1) {
      for (int s = 0; s < options_.shards; ++s) {
        if (s == seg.victim) continue;
        Status checkpoint = router_->shard(s).CheckpointNow();
        if (!checkpoint.ok()) {
          Fail(&SoakReport::errors, seg.round, "error",
               "sibling checkpoint of shard " + std::to_string(s) + ": " +
                   checkpoint.ToString());
        }
      }
      router_->shard(seg.victim).CrashWalForTest();
      crashed_victim_ = seg.victim;
      ++report_.crashes;
    } else {
      ++report_.clean_closes;
    }
    router_.reset();
  }

  void Subscribe() {
    subs_.clear();
    members_.assign(static_cast<size_t>(options_.shards), 0);
    auto add = [this](std::string selector, int32_t query) {
      auto id = router_->Subscribe(
          selector, schedule_.queries[static_cast<size_t>(query)],
          [this](const mview::SubscriptionEvent& event) {
            std::lock_guard<std::mutex> lock(events_mu_);
            events_[{event.subscription, event.doc_key}].push_back(event);
          });
      GKX_CHECK(id.ok());
      subs_.push_back({*id, query, std::move(selector)});
    };
    for (int32_t query : standing_) {
      add("doc*", query);  // a prefix reaches every shard
      for (int64_t& members : members_) ++members;
    }
    if (standing_.empty()) return;
    for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
      add(schedule_.doc_keys[d], standing_[0]);  // routed to the owner
      ++members_[static_cast<size_t>(shard_of_[d])];
    }
  }

  void RunSegment(const Segment& seg) {
    Subscribe();
    std::vector<int64_t> base_revision;
    for (int s = 0; s < options_.shards; ++s) {
      base_revision.push_back(router_->shard(s).documents().last_revision());
    }
    const int64_t requests_before = requests_.load();
    answer_errors_.store(0);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back([this, t, &seg] { Worker(t, seg); });
    }
    for (auto& worker : workers) worker.join();
    // Churn has stopped; drain pending subscription evaluations so the
    // collected diff streams (and the fired counters) are final.
    router_->FlushSubscriptions();
    watermark_ = seg.hi;

    CheckCorpus(seg.round, "end of segment");
    const std::vector<int64_t> delivered = CheckSubscriptions(seg);
    CheckStats(seg, requests_.load() - requests_before, base_revision,
               delivered);
  }

  void Worker(int thread, const Segment& seg) {
    // Same-thread churn is visible to later reads on this thread (the store
    // mutex orders Put before Get); that is the lower edge of the window.
    std::vector<int32_t> lo = seg.start;
    for (size_t i = seg.begin; i < seg.end; ++i) {
      if (Owner(i) != thread) continue;
      const Operation& op = schedule_.operations[i];
      switch (op.kind) {
        case Operation::Kind::kAddDocument:
        case Operation::Kind::kEditDocument: {
          const size_t doc = static_cast<size_t>(op.doc);
          const bool patch = op.kind == Operation::Kind::kEditDocument;
          const xml::Document& want =
              schedule_.revisions[doc][static_cast<size_t>(op.revision)];
          Status applied =
              patch ? router_->UpdateDocument(schedule_.doc_keys[doc], op.edit)
                    : router_->RegisterDocument(schedule_.doc_keys[doc],
                                                xml::Document(want));
          mutations_.fetch_add(1, std::memory_order_relaxed);
          if (!applied.ok()) {
            Fail(&SoakReport::errors, seg.round, "error",
                 "op=" + std::to_string(i) + " mutation of " +
                     schedule_.doc_keys[doc] + ": " + applied.ToString());
            break;
          }
          lo[doc] = op.revision;
          if (!patch) break;
          patches_.fetch_add(1, std::memory_order_relaxed);
          // Differential: this thread is the document's only writer, so
          // the owning shard now holds exactly what the patch produced —
          // which must be node-for-node the precomputed revision.
          auto stored = router_->shard(shard_of_[doc])
                            .documents()
                            .Get(schedule_.doc_keys[doc]);
          std::string why = "document vanished";
          if (stored == nullptr ||
              !ExhaustiveEquals(stored->doc(), want, &why)) {
            std::ostringstream message;
            message << "op=" << i << " thread=" << thread
                    << " doc=" << schedule_.doc_keys[doc]
                    << " revision=" << op.revision << " " << why;
            Fail(&SoakReport::patch_divergences, seg.round, "patch divergence",
                 message.str());
          }
          break;
        }
        case Operation::Kind::kSubmit: {
          const auto [d, query] = op.requests.front();
          requests_.fetch_add(1, std::memory_order_relaxed);
          auto response =
              router_->Submit(schedule_.doc_keys[static_cast<size_t>(d)],
                              schedule_.queries[static_cast<size_t>(query)]);
          CheckAnswer(seg.round, static_cast<int64_t>(i), thread, d, query,
                      lo[static_cast<size_t>(d)],
                      seg.hi[static_cast<size_t>(d)], response);
          break;
        }
        case Operation::Kind::kBatch: {
          std::vector<ShardedQueryService::Request> batch;
          batch.reserve(op.requests.size());
          for (const auto& [d, query] : op.requests) {
            batch.push_back({schedule_.doc_keys[static_cast<size_t>(d)],
                             schedule_.queries[static_cast<size_t>(query)]});
          }
          requests_.fetch_add(static_cast<int64_t>(batch.size()),
                              std::memory_order_relaxed);
          auto responses = router_->SubmitBatch(batch);
          for (size_t r = 0; r < responses.size(); ++r) {
            const auto [d, query] = op.requests[r];
            CheckAnswer(seg.round, static_cast<int64_t>(i), thread, d, query,
                        lo[static_cast<size_t>(d)],
                        seg.hi[static_cast<size_t>(d)], responses[r]);
          }
          break;
        }
      }
      if (durable_ && i == seg.halfway) {
        // Forced mid-traffic: the manifest capture races the other
        // threads' appends.
        Status checkpoint = router_->CheckpointNow();
        if (checkpoint.ok()) {
          checkpoints_.fetch_add(1, std::memory_order_relaxed);
        } else {
          Fail(&SoakReport::errors, seg.round, "error",
               "op=" + std::to_string(i) + " mid-segment checkpoint: " +
                   checkpoint.ToString());
        }
      }
    }
  }

  /// `op` is the schedule index, or -1 for the final probe.
  void CheckAnswer(int round, int64_t op, int thread, int32_t doc,
                   int32_t query, int32_t rev_lo, int32_t rev_hi,
                   const Result<QueryService::Answer>& response) {
    // Built only on failure: the success path stays free of formatting.
    auto where = [&] {
      std::ostringstream out;
      out << "op=" << (op < 0 ? std::string("probe") : std::to_string(op))
          << " thread=" << thread << " doc="
          << schedule_.doc_keys[static_cast<size_t>(doc)] << " query='"
          << schedule_.queries[static_cast<size_t>(query)] << "' ";
      return out;
    };
    if (!response.ok()) {
      answer_errors_.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream message = where();
      message << "status=" << response.status().ToString();
      Fail(&SoakReport::errors, round, "error", message.str());
      return;
    }
    const std::string digest = AnswerDigest(response->value);
    if (oracle_.MatchesAnyRevision(doc, rev_lo, rev_hi, query, digest)) return;
    std::ostringstream message = where();
    message << "evaluator=" << response->evaluator << " rev_window=[" << rev_lo
            << "," << rev_hi << "] got=" << digest << " want(rev" << rev_hi
            << ")=" << oracle_.Expected(doc, rev_hi, query);
    Fail(&SoakReport::divergences, round, "divergence", message.str());
  }

  /// Every document must sit at exactly its watermark revision, node for
  /// node, on the shard that owns it.
  void CheckCorpus(int round, const char* when) {
    for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
      const std::string& key = schedule_.doc_keys[d];
      auto stored = router_->shard(shard_of_[d]).documents().Get(key);
      const int32_t revision = watermark_[d];
      std::string why = "document missing";
      const xml::Document& want =
          schedule_.revisions[d][static_cast<size_t>(revision)];
      if (stored != nullptr && ExhaustiveEquals(stored->doc(), want, &why)) {
        continue;
      }
      Fail(&SoakReport::lost_updates, round, "lost update",
           std::string("(") + when + ") doc=" + key + " is not revision " +
               std::to_string(revision) + ": " + why);
    }
  }

  /// The final incarnation must serve what it recovered: one SubmitBatch
  /// asks the probe query on every document, at its watermark revision.
  void Probe(int round) {
    std::vector<ShardedQueryService::Request> batch;
    for (const std::string& key : schedule_.doc_keys) {
      batch.push_back({key, schedule_.queries[kProbeQuery]});
    }
    auto responses = router_->SubmitBatch(batch);
    for (size_t d = 0; d < responses.size(); ++d) {
      CheckAnswer(round, -1, 0, static_cast<int32_t>(d), kProbeQuery,
                  watermark_[d], watermark_[d], responses[d]);
    }
  }

  /// Validates every collected event and re-applies each (subscription,
  /// document) diff stream from the empty set. Returns the deliveries per
  /// shard (a document's events come from its owner).
  std::vector<int64_t> CheckSubscriptions(const Segment& seg) {
    std::map<std::pair<int64_t, std::string>,
             std::vector<mview::SubscriptionEvent>>
        events;
    {
      std::lock_guard<std::mutex> lock(events_mu_);
      events.swap(events_);
    }
    auto violation = [&](const std::string& what) {
      Fail(&SoakReport::subscription_violations, seg.round,
           "subscription violation", what);
    };
    std::vector<int64_t> delivered(static_cast<size_t>(options_.shards), 0);
    for (const auto& [key, stream] : events) {
      const auto& [id, doc_key] = key;
      report_.subscription_events += static_cast<int64_t>(stream.size());
      delivered[static_cast<size_t>(map_.ShardOf(doc_key))] +=
          static_cast<int64_t>(stream.size());
      auto sub = std::find_if(
          subs_.begin(), subs_.end(),
          [id = id](const Standing& standing) { return standing.id == id; });
      if (sub == subs_.end()) {
        violation("event under unregistered subscription id " +
                  std::to_string(id) + " for doc=" + doc_key);
      } else if (!SelectorMatches(sub->selector, doc_key)) {
        violation("sub=" + std::to_string(id) + " selector '" + sub->selector +
                  "' delivered doc=" + doc_key);
      }
    }
    for (const Standing& sub : subs_) {
      for (size_t d = 0; d < schedule_.doc_keys.size(); ++d) {
        const std::string& doc_key = schedule_.doc_keys[d];
        if (!SelectorMatches(sub.selector, doc_key)) continue;
        const int32_t doc = static_cast<int32_t>(d);
        auto it = events.find({sub.id, doc_key});
        const size_t count = it == events.end() ? 0 : it->second.size();
        auto describe = [&](size_t event, const std::string& what,
                            const std::string& state) {
          std::ostringstream message;
          message << "sub=" << sub.id << " selector='" << sub.selector
                  << "' doc=" << doc_key << " query='"
                  << schedule_.queries[static_cast<size_t>(sub.query)]
                  << "' event=" << event << " " << what << " state=" << state;
          violation(message.str());
        };
        eval::NodeSet applied;
        for (size_t e = 0; e < count; ++e) {
          if (!ApplyDiff(&applied, it->second[e])) {
            describe(e, "diff removes absent / re-adds present nodes",
                     NodesDigest(applied));
            break;
          }
          const std::string digest = NodesDigest(applied);
          if (!oracle_.MatchesAnyRevision(doc, seg.start[d], seg.hi[d],
                                          sub.query, digest)) {
            describe(e, "state matches no revision's oracle answer", digest);
          }
        }
        const std::string final_digest = NodesDigest(applied);
        const std::string& want = oracle_.Expected(doc, seg.hi[d], sub.query);
        if (final_digest != want) {
          describe(count,
                   "final state != watermark revision (want " + want + ")",
                   final_digest);
        }
        // An initial answer is delivered only when it is non-empty.
        if (!seg.churned[d] && count != (applied.empty() ? 0u : 1u)) {
          describe(count, "unchurned document got " + std::to_string(count) +
                              " events",
                   final_digest);
        }
      }
    }
    return delivered;
  }

  void CheckStats(const Segment& seg, int64_t executed,
                  const std::vector<int64_t>& base_revision,
                  const std::vector<int64_t>& delivered) {
    const ServiceStats aggregate = router_->Stats();
    auto require = [&](bool condition, const std::string& what) {
      if (!condition) {
        Fail(&SoakReport::stats_violations, seg.round, "stats inconsistency",
             what);
      }
    };
    require(executed == seg.requests, "executed requests != schedule total");
    require(aggregate.failures == answer_errors_.load(),
            "failure counter != observed errors");
    require(aggregate.plan_cache.evictions == observed_evictions_.load(),
            "eviction counter != evictions observed via on_evict");

    ShardTally total;
    int64_t total_delivered = 0;
    int64_t total_members = 0;
    for (size_t s = 0; s < seg.tally.size(); ++s) {
      total.requests += seg.tally[s].requests;
      total.batches += seg.tally[s].batches;
      total_delivered += delivered[s];
      total_members += members_[s];
    }
    // Index -1 is the aggregate; the router sums shards, so every identity
    // must hold for each shard and for the sum alike.
    for (int s = -1; s < options_.shards; ++s) {
      const size_t slot = static_cast<size_t>(std::max(s, 0));
      const ServiceStats stats = s < 0 ? aggregate : router_->shard(s).Stats();
      const ShardTally& want = s < 0 ? total : seg.tally[slot];
      const std::string who =
          s < 0 ? "aggregate: " : "shard " + std::to_string(s) + ": ";
      require(stats.requests == want.requests,
              who + "request counter != requests routed to it");
      require(stats.batches == want.batches,
              who + "batch counter != batch operations touching it");
      require(stats.plan_cache.parse_failures == 0,
              who + "parse failures on a parse-checked pool");
      require(stats.plan_cache.Lookups() == stats.requests,
              who + "hits+canonical_hits+misses+parse_failures != requests");
      require(stats.latency.count == stats.requests - stats.failures,
              who + "latency histogram count != successful requests");
      // Every evaluated request records at least one route (a failed one
      // may record none), and skipped segments record theirs too.
      const int64_t routes = SumCounts(stats.segment_route_counts);
      require(routes >= stats.answer_cache.misses - stats.failures,
              who + "an evaluated request recorded no route");
      require(stats.exec_skipped_segments <= routes,
              who + "skipped segments exceed total segment dispatches");
      const auto& cache = stats.answer_cache;
      if (stats.answer_cache_enabled && stats.failures == 0) {
        require(cache.hits + cache.misses == stats.requests,
                who + "answer cache lookups != successful requests");
        require(cache.inserts + cache.declined == cache.misses,
                who + "answer cache misses != inserts + declines");
        require(cache.bytes >= 0,
                who + "answer cache byte gauge went negative");
      }
      require(stats.subscriptions.fired ==
                  (s < 0 ? total_delivered : delivered[slot]),
              who + "subscription fired counter != deliveries observed");
      require(stats.subscriptions.active ==
                  (s < 0 ? total_members : members_[slot]),
              who + "active subscriptions != members registered on it");
      if (s < 0) continue;

      const QueryService& shard = router_->shard(s);
      require(stats.plan_cache_entries <= shard.plan_cache().capacity_bound(),
              who + "plan cache exceeded its capacity bound");
      const int64_t growth =
          shard.documents().last_revision() - base_revision[slot];
      require(growth == want.churn,
              who + "store revision grew by " + std::to_string(growth) +
                  ", churn on its documents is " + std::to_string(want.churn));
      if (want.churn == 0) {
        require(cache.invalidations == 0 && cache.retained == 0 &&
                    cache.remapped == 0,
                who + "owns no churned document yet invalidated=" +
                    std::to_string(cache.invalidations) + " retained=" +
                    std::to_string(cache.retained) + " remapped=" +
                    std::to_string(cache.remapped));
      }
      if (stats.answer_cache_enabled) {
        require(cache.entries <= static_cast<int64_t>(
                                     shard.answer_cache().capacity_bound()),
                who + "answer cache exceeded its capacity bound");
        // (An eviction may have taken the warm entry.)
        require(!want.warm || cache.hits > 0 || cache.evictions > 0,
                who + "served no warm answer: the cache never engaged");
      }
    }
    if (seg.round == options_.rounds - 1) {
      report_.stats = aggregate;
      report_.stats_json = router_->ExportStats(service::StatsFormat::kJson);
    }
  }

  /// The one failure recorder; thread-safe.
  void Fail(int64_t SoakReport::*counter, int round, const char* kind,
            const std::string& what) {
    std::ostringstream message;
    message << kind << ": seed=" << schedule_.seed << " round=" << round << " "
            << what << " | replay: CompileWorkload(seed=" << schedule_.seed
            << ")";
    std::lock_guard<std::mutex> lock(failures_mu_);
    ++(report_.*counter);
    if (report_.failures.size() < kMaxFailuresReported) {
      report_.failures.push_back(message.str());
    }
  }

  const Schedule& schedule_;
  const SoakOptions& options_;
  const int threads_;
  const bool durable_;
  const service::ShardMap map_;
  std::vector<int32_t> standing_;  // pool indexes (before oracle_: init order)
  Oracle oracle_;
  std::vector<int> shard_of_;      // per document
  std::vector<int64_t> owned_;     // documents per shard
  std::vector<int32_t> watermark_; // per document, as of the last join
  int crashed_victim_ = -1;        // until the reopen after a crash

  std::unique_ptr<ShardedQueryService> router_;
  std::vector<Standing> subs_;     // this incarnation's subscriptions
  std::vector<int64_t> members_;   // subscription members per shard
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> mutations_{0};
  std::atomic<int64_t> patches_{0};
  std::atomic<int64_t> checkpoints_{0};
  std::atomic<int64_t> answer_errors_{0};       // this incarnation
  std::atomic<int64_t> observed_evictions_{0};  // this incarnation
  std::mutex events_mu_;
  std::map<std::pair<int64_t, std::string>,
           std::vector<mview::SubscriptionEvent>>
      events_;
  std::mutex failures_mu_;
  SoakReport report_;
};

}  // namespace

std::string SoakReport::Summary() const {
  std::ostringstream out;
  out << "soak seed=" << seed << ": " << operations << " ops (" << requests
      << " requests, " << mutations << " mutations, " << patches
      << " patches) on " << threads << " threads x " << shards
      << " shard(s), " << rounds << " round(s), oracle=" << oracle_evaluations
      << " evals — " << (ok() ? "PASS" : "FAIL")
      << " (divergences=" << divergences << " errors=" << errors
      << " lost_updates=" << lost_updates
      << " patch_divergences=" << patch_divergences
      << " stats_violations=" << stats_violations
      << " subscription_violations=" << subscription_violations
      << " recovery_violations=" << recovery_violations
      << "); plan cache hit rate " << stats.plan_cache.HitRate()
      << ", answer cache hit rate " << stats.answer_cache.HitRate() << " ("
      << stats.answer_cache.invalidations << " invalidated, "
      << stats.answer_cache.retained << " retained), " << subscriptions
      << " standing queries (" << subscription_events << " diffs, "
      << stats.subscriptions.coalesced << " coalesced)";
  if (recoveries > 0) {
    out << "; durable: " << checkpoints << " checkpoints, " << crashes
        << " crashes, " << clean_closes << " clean closes, " << recoveries
        << " recoveries (snapshots_loaded=" << snapshots_loaded
        << " records_replayed=" << records_replayed
        << " records_skipped=" << records_skipped
        << " victim_records_replayed=" << victim_records_replayed << ")";
  }
  for (const std::string& failure : failures) out << "\n  " << failure;
  return out.str();
}

SoakReport RunSoak(const Schedule& schedule, const SoakOptions& options) {
  Replay replay(schedule, options);
  return replay.Run();
}

}  // namespace gkx::testkit
