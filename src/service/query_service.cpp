#include "service/query_service.hpp"

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "plan/ir.hpp"
#include "service/indexed_path.hpp"

namespace gkx::service {

namespace {

inline double MillisBetween(uint64_t begin_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-6;
}

/// Registers one pull gauge per counter of a component, named
/// "<section>.<field>"; `read` snapshots the component's Counters at export.
template <typename Counters, typename Read>
void AddCounterGauges(
    obs::MetricRegistry* registry, const std::string& section, Read read,
    std::initializer_list<std::pair<const char*, int64_t Counters::*>> fields) {
  for (const auto& [name, field] : fields) {
    registry->SetGauge(section + "." + name, [read, field = field] {
      return static_cast<double>(read().*field);
    });
  }
}

}  // namespace

QueryService::QueryService(const Options& options)
    : options_(options),
      pool_(options.pool ? options.pool : &ThreadPool::Shared()),
      plan_cache_(options.plan_cache),
      answer_cache_(options.answer_cache),
      requests_(registry_.GetCounter("service.requests")),
      batches_(registry_.GetCounter("service.batches")),
      failures_(registry_.GetCounter("service.failures")),
      skipped_segments_(registry_.GetCounter("exec.skipped_segments")),
      latency_(registry_.GetHistogram("latency_ms")),
      stage_doc_lookup_(registry_.GetHistogram("metrics.stage.doc_lookup_ms")),
      stage_plan_lookup_(
          registry_.GetHistogram("metrics.stage.plan_lookup_ms")),
      stage_answer_cache_lookup_(
          registry_.GetHistogram("metrics.stage.answer_cache_lookup_ms")),
      stage_execute_(registry_.GetHistogram("metrics.stage.execute_ms")),
      stage_cache_insert_(
          registry_.GetHistogram("metrics.stage.cache_insert_ms")),
      update_count_(registry_.GetCounter("metrics.update.count")),
      update_splice_(registry_.GetHistogram("metrics.update.splice_ms")),
      update_affected_scan_(
          registry_.GetHistogram("metrics.update.affected_scan_ms")),
      update_invalidated_(registry_.GetHistogram(
          "metrics.update.invalidated_entries", obs::Histogram::Unit::kCount)),
      update_retained_(registry_.GetHistogram(
          "metrics.update.retained_entries", obs::Histogram::Unit::kCount)),
      update_remapped_(registry_.GetHistogram(
          "metrics.update.remapped_entries", obs::Histogram::Unit::kCount)),
      update_sub_eval_(
          registry_.GetHistogram("metrics.update.subscription_eval_ms")),
      slow_log_(options.obs.slow_query_ms, options.obs.slow_query_capacity),
      tracing_(options.obs.tracing),
      subscriptions_(&store_, pool_) {
  routes_[0] = registry_.GetHistogram("routes.pf-indexed");
  for (size_t slot = 1; slot < routes_.size(); ++slot) {
    routes_[slot] = registry_.GetHistogram(
        "routes." +
        std::string(plan::RouteName(static_cast<plan::Route>(slot - 1))));
  }
  // The components keep their own counters; pull gauges read them into the
  // document at export time.
  registry_.SetGauge("service.documents",
                     [this] { return static_cast<double>(store_.size()); });
  registry_.SetGauge("service.slow_queries", [this] {
    return static_cast<double>(slow_log_.recorded());
  });
  registry_.SetGauge("plan_cache.entries", [this] {
    return static_cast<double>(plan_cache_.size());
  });
  using PlanCounters = PlanCache::Counters;
  AddCounterGauges<PlanCounters>(
      &registry_, "plan_cache", [this] { return plan_cache_.counters(); },
      {{"hits", &PlanCounters::hits},
       {"canonical_hits", &PlanCounters::canonical_hits},
       {"misses", &PlanCounters::misses},
       {"parse_failures", &PlanCounters::parse_failures},
       {"evictions", &PlanCounters::evictions}});
  using AnswerCounters = mview::AnswerCache::Counters;
  AddCounterGauges<AnswerCounters>(
      &registry_, "answer_cache", [this] { return answer_cache_.counters(); },
      {{"hits", &AnswerCounters::hits},
       {"misses", &AnswerCounters::misses},
       {"inserts", &AnswerCounters::inserts},
       {"invalidations", &AnswerCounters::invalidations},
       {"retained", &AnswerCounters::retained},
       {"remapped", &AnswerCounters::remapped},
       {"evictions", &AnswerCounters::evictions},
       {"declined", &AnswerCounters::declined},
       {"bytes", &AnswerCounters::bytes},
       {"entries", &AnswerCounters::entries}});
  using SubscriptionCounters = mview::SubscriptionManager::Counters;
  AddCounterGauges<SubscriptionCounters>(
      &registry_, "subscriptions",
      [this] { return subscriptions_.counters(); },
      {{"active", &SubscriptionCounters::active},
       {"fired", &SubscriptionCounters::fired},
       {"coalesced", &SubscriptionCounters::coalesced},
       {"skipped_disjoint", &SubscriptionCounters::skipped_disjoint},
       {"evaluations", &SubscriptionCounters::evaluations}});

  store_.set_report_deltas(options.delta_invalidation);
  if (!options_.wal.dir.empty()) {
    // Open + recover BEFORE the update listener is installed: replay feeds
    // the store through the Recover* paths (no journaling, no listener), so
    // the mview layer starts cold against the recovered corpus instead of
    // re-processing history as churn. On failure the service still serves —
    // in memory, WAL-less — and wal_status() carries the reason.
    auto wal = wal::Wal::OpenAndRecover(options_.wal, &store_, &wal_recovery_,
                                        &registry_);
    if (wal.ok()) {
      wal_ = std::move(wal).value();
      store_.AttachWal(wal_.get());
    } else {
      wal_status_ = wal.status();
    }
  }
  store_.SetUpdateListener(
      [this](const CorpusUpdate& update) { OnCorpusUpdate(update); });
  if (tracing_) {
    subscriptions_.set_evaluation_observer(
        [this](double seconds) { update_sub_eval_->Record(seconds); });
  }
}

Status QueryService::RegisterDocument(std::string key, xml::Document doc) {
  return store_.Put(std::move(key), std::move(doc));
}

Status QueryService::RegisterXml(std::string key, std::string_view xml) {
  return store_.PutXml(std::move(key), xml);
}

Status QueryService::UpdateDocument(std::string_view key,
                                    const xml::SubtreeEdit& edit) {
  return store_.Update(key, edit);
}

bool QueryService::RemoveDocument(std::string_view key) {
  return store_.Remove(key);
}

void QueryService::OnCorpusUpdate(const CorpusUpdate& update) {
  // The store pre-computes the changed-name set from the two revisions'
  // intern pools (whole-document replacement) or the subtree delta (Update)
  // — churn builds no posting list. A plan whose footprint is unaffected by
  // the set (plus, for deltas, the sharpened region-local tests in
  // plan/footprint.hpp) cannot see the difference.
  if (tracing_) {
    update_count_->Add();
    update_splice_->Record(update.splice_seconds);
  }
  if (options_.answer_cache_enabled) {
    const uint64_t t0 = tracing_ ? obs::NowNs() : 0;
    const mview::AnswerCache::UpdateImpact impact =
        answer_cache_.OnDocumentUpdate(
            update.key, update.old_doc ? update.old_doc->revision() : -1,
            update.new_doc ? update.new_doc->revision() : -1,
            update.changed_names, update.delta);
    if (tracing_) {
      // The footprint AffectedBy scan dominates this call; the churn-impact
      // histograms record how many entries each update touched.
      update_affected_scan_->RecordValue(obs::NowNs() - t0);
      update_invalidated_->RecordValue(
          static_cast<uint64_t>(impact.invalidated));
      update_retained_->RecordValue(static_cast<uint64_t>(impact.retained));
      update_remapped_->RecordValue(static_cast<uint64_t>(impact.remapped));
    }
  }
  subscriptions_.NotifyDocumentChanged(update.key, update.changed_names,
                                       /*all_changed=*/!update.replacement(),
                                       /*removed=*/update.new_doc == nullptr,
                                       update.delta);
  // Auto-checkpoint: the listener runs post-install, post-durability, and
  // outside the store mutex — exactly the place the journal may be folded
  // into a snapshot set. Checkpoint errors are non-fatal by design (the
  // previous manifest stays valid, the journal just keeps growing, and the
  // next mutation retries); explicit CheckpointNow() callers see the Status.
  if (wal_ != nullptr && wal_->options().checkpoint_every_bytes > 0 &&
      wal_->BytesSinceCheckpoint() >= wal_->options().checkpoint_every_bytes) {
    (void)wal_->Checkpoint(store_);
  }
}

Status QueryService::CheckpointNow() {
  if (wal_ == nullptr) return Status::Ok();
  return wal_->Checkpoint(store_);
}

void QueryService::CrashWalForTest() {
  if (wal_ == nullptr) return;
  // Detach first: a mutation racing the crash must not block forever on a
  // committer that is gone. (WaitDurable also wakes on crashed_, but new
  // enqueues would CHECK-fail — the soak quiesces writers before killing.)
  store_.AttachWal(nullptr);
  wal_->SimulateCrash();
}

Result<QueryService::Answer> QueryService::Process(
    eval::Engine& engine, const std::string& doc_key,
    const std::string& query_text, bool* evaluated_out) {
  const uint64_t t_start = obs::NowNs();
  const int64_t seq = requests_->Add();
  // Sub-microsecond lookup stages stamp the clock 1-in-kStageSampleEvery
  // requests: on a warm answer-cache hit the whole request is ~0.5us, and
  // per-request clock reads alone would cost tens of percent (the
  // bench_obs_overhead bar is < 5%). Execution-side stamps stay
  // per-request — they only run on answer-cache misses, where evaluation
  // work amortizes them.
  const bool sampled = tracing_ && (seq & (kStageSampleEvery - 1)) == 0;

  auto fail = [this](Status status) -> Result<Answer> {
    failures_->Add();
    return status;
  };

  std::shared_ptr<const StoredDocument> stored = store_.Get(doc_key);
  const uint64_t t_doc = sampled ? obs::NowNs() : 0;
  if (stored == nullptr) {
    return fail(InvalidArgumentError("unknown document key '" + doc_key + "'"));
  }

  auto plan_or = plan_cache_.GetOrCompile(query_text);
  const uint64_t t_plan = sampled ? obs::NowNs() : 0;
  if (!plan_or.ok()) return fail(plan_or.status());
  const std::shared_ptr<const eval::Engine::Plan>& plan = *plan_or;

  Answer answer;
  bool from_answer_cache = false;
  if (options_.answer_cache_enabled) {
    // The revision pins the exact document state this request snapshotted;
    // a hit is byte-identical to evaluating `stored` fresh.
    if (auto cached = answer_cache_.Lookup(doc_key, stored->revision(),
                                           plan->canonical_text)) {
      answer = cached->answer;
      from_answer_cache = true;
    }
  }
  const uint64_t t_cache = sampled ? obs::NowNs() : 0;

  // Per-segment timings of the executed plan: exactly one entry per plan
  // segment (skipped segments report 0.0s), so each segment records its
  // route exactly once. Empty for the index fast path and cache hits.
  plan::ExecTrace exec_trace;
  bool indexed = false;
  const bool evaluated = !from_answer_cache;
  *evaluated_out = evaluated;
  const uint64_t t_exec_begin = evaluated ? obs::NowNs() : 0;
  if (evaluated && plan->fragment.in_pf) {
    if (auto nodes = TryIndexedPath(stored->index(), plan->query)) {
      answer.value = eval::Value::Nodes(std::move(*nodes));
      answer.fragment = plan->fragment;
      answer.evaluator = "pf-indexed";
      indexed = true;
    }
  }
  if (evaluated && !indexed) {
    auto run = engine.RunPlan(stored->doc(), *plan,
                              eval::RootContext(stored->doc()), &exec_trace);
    if (!run.ok()) return fail(run.status());
    answer = std::move(run).value();
  }
  const uint64_t t_exec = evaluated ? obs::NowNs() : 0;

  if (options_.answer_cache_enabled && evaluated) {
    // Cache the true answer before the (test-only) tap can perturb it.
    answer_cache_.Insert(doc_key, stored->revision(), plan->canonical_text,
                         answer, plan->footprint);
  }
  const uint64_t t_insert = tracing_ && evaluated ? obs::NowNs() : 0;
  if (options_.answer_tap) options_.answer_tap(&answer);

  // Route accounting from the trace alone, plus the index fast path as
  // "pf-indexed". An answer-cache hit executed nothing and records nothing.
  if (indexed) routes_[0]->RecordValue(t_exec - t_exec_begin);
  int64_t skipped = 0;
  for (const plan::SegmentTiming& timing : exec_trace) {
    RouteHistogram(timing.route)->Record(timing.seconds);
    skipped += timing.skipped ? 1 : 0;
  }
  if (skipped > 0) skipped_segments_->Add(skipped);

  const uint64_t t_end = obs::NowNs();
  if (tracing_) {
    if (sampled) {
      stage_doc_lookup_->RecordValue(t_doc - t_start);
      stage_plan_lookup_->RecordValue(t_plan - t_doc);
      stage_answer_cache_lookup_->RecordValue(t_cache - t_plan);
    }
    if (evaluated) {
      stage_execute_->RecordValue(t_exec - t_exec_begin);
      stage_cache_insert_->RecordValue(t_insert - t_exec);
    }
    const double total_ms = MillisBetween(t_start, t_end);
    if (slow_log_.Eligible(total_ms)) {
      obs::SlowQuery slow;
      slow.doc_key = doc_key;
      slow.query = plan->canonical_text;
      slow.revision = static_cast<uint64_t>(stored->revision());
      slow.total_ms = total_ms;
      if (indexed) slow.routes.emplace_back("pf-indexed");
      for (const plan::SegmentTiming& timing : exec_trace) {
        slow.routes.emplace_back(plan::RouteName(timing.route));
      }
      // The breakdown carries every span this request actually stamped:
      // the lookup stages when it was a sampled request, the execution
      // spans whenever it evaluated.
      if (sampled) {
        slow.stages_ms.emplace_back("doc_lookup",
                                    MillisBetween(t_start, t_doc));
        slow.stages_ms.emplace_back("plan_lookup",
                                    MillisBetween(t_doc, t_plan));
        slow.stages_ms.emplace_back("answer_cache_lookup",
                                    MillisBetween(t_plan, t_cache));
      }
      if (evaluated) {
        slow.stages_ms.emplace_back("execute",
                                    MillisBetween(t_exec_begin, t_exec));
        slow.stages_ms.emplace_back("cache_insert",
                                    MillisBetween(t_exec, t_insert));
      }
      slow_log_.Record(std::move(slow));
    }
  }
  latency_->RecordValue(t_end - t_start);
  return answer;
}

Result<QueryService::Answer> QueryService::Submit(
    const std::string& doc_key, const std::string& query_text) {
  eval::Engine engine;
  bool evaluated = false;
  return Process(engine, doc_key, query_text, &evaluated);
}

void QueryService::RunBatch(ThreadPool& pool, int batch_workers, size_t n,
                            const BatchStep& serve) {
  eval::Engine engine;
  // Inline: a run of answer-cache hits costs less than waking a pool
  // thread for it.
  size_t next = 0;
  while (next < n) {
    if (serve(engine, next++)) break;
  }
  const size_t rest = n - next;
  const size_t width = std::min(
      rest, static_cast<size_t>(batch_workers > 0 ? batch_workers
                                                  : pool.thread_count() + 1));
  if (width <= 1) {
    while (next < n) serve(engine, next++);
    return;
  }
  // Forked: costs are skewed (a hit and a cold cvt evaluation differ by
  // orders of magnitude), so threads claim requests one at a time.
  // Evaluator scratch state is per engine; documents and plans are shared
  // read-only.
  std::atomic<size_t> cursor{next};
  const std::thread::id caller = std::this_thread::get_id();
  auto drain = [&](eval::Engine& own) {
    while (true) {
      const size_t i = cursor.fetch_add(1);
      if (i >= n) return;
      serve(own, i);
    }
  };
  pool.ParallelFor(static_cast<int>(width), [&](int) {
    if (std::this_thread::get_id() == caller) {
      drain(engine);
    } else if (cursor.load() < n) {
      eval::Engine own;
      drain(own);
    }
  });
}

Result<QueryService::Answer> QueryService::Unserved() {
  // Short enough for std::string's inline buffer: filling a batch's slots
  // with copies of it allocates nothing per request.
  return InternalError("not served");
}

std::vector<Result<QueryService::Answer>> QueryService::SubmitBatch(
    const std::vector<Request>& requests) {
  batches_->Add();
  std::vector<Result<Answer>> responses(requests.size(), Unserved());
  RunBatch(*pool_, options_.batch_workers, requests.size(),
           [&](eval::Engine& engine, size_t i) {
             bool evaluated = false;
             responses[i] = Process(engine, requests[i].doc_key,
                                    requests[i].query, &evaluated);
             return evaluated;
           });
  return responses;
}

Result<int64_t> QueryService::Subscribe(std::string doc_selector,
                                        const std::string& query_text,
                                        mview::SubscriptionCallback callback) {
  // Standing queries compile outside the PlanCache: they are long-lived
  // (the subscription pins its plan anyway) and must not skew the
  // lookups-per-request reconciliation the soak harness checks.
  auto plan = eval::Engine::Compile(query_text);
  if (!plan.ok()) return plan.status();
  return subscriptions_.Subscribe(
      std::move(doc_selector),
      std::make_shared<const eval::Engine::Plan>(std::move(plan).value()),
      std::move(callback));
}

bool QueryService::Unsubscribe(int64_t subscription_id) {
  return subscriptions_.Unsubscribe(subscription_id);
}

void QueryService::FlushSubscriptions() { subscriptions_.Flush(); }

}  // namespace gkx::service
