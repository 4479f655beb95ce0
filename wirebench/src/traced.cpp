// --trace 1: the same seeded stream as the untraced run, sent to the wire
// stack and replayed on the twins (trace.hpp), with spans around every call
// and the library's own counters read through Stats() / ExportStats().

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "bench.hpp"
#include "net/frame.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "service/indexed_path.hpp"
#include "trace.hpp"
#include "xml/index.hpp"

namespace wirebench {

using gkx::obs::NowNs;

namespace {

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The route a census answer belongs to: staged plans report "a+b"
/// evaluator lists and are grouped as "hybrid".
std::string RouteOf(const std::string& evaluator) {
  if (evaluator.find('+') != std::string::npos) return "hybrid";
  if (evaluator.rfind("cvt", 0) == 0) return "cvt";
  return evaluator;
}

struct Codec {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t payload_bytes = 0;
};

// What the two ends of the wire do to one request and its response, minus
// the sockets: encode and frame (CRC) each message, decode it back.
Codec TimeCodec(const gkx::net::Message& request,
                const gkx::net::Message& response) {
  Codec codec;
  std::string framed;
  codec.start_ns = NowNs();
  bool decoded = true;
  for (const gkx::net::Message* message : {&request, &response}) {
    const std::string payload = gkx::net::EncodeMessage(*message);
    gkx::net::AppendFrame(payload, &framed);
    decoded = gkx::net::DecodeMessage(payload).ok() && decoded;
    codec.payload_bytes += static_cast<int64_t>(payload.size());
  }
  codec.end_ns = NowNs();
  GKX_CHECK(decoded);
  return codec;
}

const char* const kEvalRoutes[] = {"pf-indexed", "pf-frontier", "core-linear",
                                   "cvt", "hybrid"};
const char* const kSegmentRoutes[] = {"pf-indexed", "pf-frontier",
                                      "core-linear", "cvt"};

}  // namespace

// ------------------------------------------------------------------ spans

int32_t SpanLog::Add(const std::string& name, int32_t parent, int64_t request,
                     uint64_t start_ns, uint64_t end_ns, bool parallel) {
  auto [it, inserted] =
      ids_.emplace(name, static_cast<int32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  spans_.push_back({it->second, parent, request, start_ns, end_ns, parallel});
  return static_cast<int32_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfTimesUs(
    const std::string& root, double* root_total_us) const {
  const auto root_id = ids_.find(root);
  *root_total_us = 0;
  std::map<std::string, double> self;
  if (root_id == ids_.end()) return self;
  // Children always follow their parent in the log. Of parallel siblings
  // only the longest blocks the parent; the others overlap it and stay out
  // of the budget.
  const size_t n = spans_.size();
  auto duration = [this](size_t i) {
    return Us(spans_[i].end_ns - spans_[i].start_ns);
  };
  std::vector<double> sequential(n, 0.0);
  std::vector<double> parallel(n, 0.0);
  std::vector<size_t> longest(n, n);
  for (size_t i = 0; i < n; ++i) {
    if (spans_[i].parent < 0) continue;
    const size_t parent = static_cast<size_t>(spans_[i].parent);
    if (!spans_[i].parallel) {
      sequential[parent] += duration(i);
    } else if (longest[parent] == n || duration(i) > parallel[parent]) {
      parallel[parent] = duration(i);
      longest[parent] = i;
    }
  }
  std::vector<bool> blocking(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (span.parent < 0) {
      blocking[i] = span.name == root_id->second;
      if (blocking[i]) *root_total_us += duration(i);
    } else {
      const size_t parent = static_cast<size_t>(span.parent);
      blocking[i] = blocking[parent] && (!span.parallel || longest[parent] == i);
    }
    if (blocking[i]) {
      self[names_[static_cast<size_t>(span.name)]] +=
          std::max(0.0, duration(i) - sequential[i] - parallel[i]);
    }
  }
  return self;
}

Status SpanLog::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return gkx::InternalError("cannot write " + path);
  out << "index\tname\tparent\trequest\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << names_[static_cast<size_t>(span.name)] << '\t'
        << span.parent << '\t' << span.request << '\t' << span.start_ns
        << '\t' << span.end_ns << '\n';
  }
  return out ? Status::Ok() : gkx::InternalError("short write " + path);
}

// ------------------------------------------------------------------ tracer

Tracer::Tracer(const Inputs& inputs, gkx::ThreadPool* pool)
    : inputs_(inputs), pool_(pool) {}

Tracer::~Tracer() {
  if (io_fd_ >= 0) ::close(io_fd_);
}

Status Tracer::Open(const std::string& twin_wal_dir) {
  auto a = OpenStack(twin_wal_dir, pool_, /*serve=*/false);
  if (!a.ok()) return a.status();
  twin_a_ = std::move(a).value();
  auto b = OpenStack("", pool_, /*serve=*/false);
  if (!b.ok()) return b.status();
  twin_b_ = std::move(b).value();
  io_fd_ = ::open("/proc/self/io", O_RDONLY | O_CLOEXEC);
  if (io_fd_ < 0) return gkx::InternalError("cannot open /proc/self/io");
  const int64_t first = SyscallCount();
  sample_cost_ = SyscallCount() - first;
  return Status::Ok();
}

int64_t Tracer::SyscallCount() const {
  char buf[1024];
  const ssize_t n = ::pread(io_fd_, buf, sizeof buf - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  int64_t total = 0;
  for (const char* field : {"syscr:", "syscw:"}) {
    if (const char* at = std::strstr(buf, field)) {
      total += std::atoll(at + std::strlen(field));
    }
  }
  return total;
}

std::vector<std::vector<gkx::service::QueryService::Request>>
Tracer::SplitByShard(const std::vector<Pair>& pairs) const {
  std::vector<std::vector<gkx::service::QueryService::Request>> by_shard(kShards);
  for (const Pair& pair : pairs) {
    const std::string& key = inputs_.keys[static_cast<size_t>(pair.doc)];
    by_shard[static_cast<size_t>(twin_b_->router->ShardOf(key))].push_back(
        {key, inputs_.queries[static_cast<size_t>(pair.query)]});
  }
  return by_shard;
}

void Tracer::OnRegister(int32_t doc) {
  const size_t d = static_cast<size_t>(doc);
  GKX_CHECK(twin_a()->RegisterXml(inputs_.keys[d], inputs_.xml[d]).ok());
  const uint64_t t0 = NowNs();
  GKX_CHECK(twin_b()->RegisterXml(inputs_.keys[d], inputs_.xml[d]).ok());
  ingest_s_ += static_cast<double>(NowNs() - t0) / 1e9;
  ingest_bytes_ += static_cast<int64_t>(inputs_.xml[d].size());
}

void Tracer::OnWarmup(const std::vector<Pair>& batch) {
  std::vector<Router::Request> requests;
  for (const Pair& pair : batch) {
    requests.push_back({inputs_.keys[static_cast<size_t>(pair.doc)],
                        inputs_.queries[static_cast<size_t>(pair.query)]});
  }
  twin_a()->SubmitBatch(requests);
  const auto by_shard = SplitByShard(batch);
  for (int s = 0; s < kShards; ++s) {
    const auto& sub = by_shard[static_cast<size_t>(s)];
    if (!sub.empty()) twin_b()->shard(s).SubmitBatch(sub);
  }
}

void Tracer::OnRead(const std::vector<Pair>& pairs,
                    const std::vector<Result<Answer>>& wire, bool single,
                    uint64_t t0, uint64_t t1, int64_t syscalls) {
  using gkx::net::Message;
  using gkx::net::MsgType;
  std::vector<Router::Request> requests;
  Message request;
  request.type = single ? MsgType::kSubmit : MsgType::kSubmitBatch;
  for (const Pair& pair : pairs) {
    const std::string& key = inputs_.keys[static_cast<size_t>(pair.doc)];
    const std::string& query = inputs_.queries[static_cast<size_t>(pair.query)];
    requests.push_back({key, query});
    request.requests.push_back({key, query});
  }
  Message response;
  response.type = single ? MsgType::kAnswer : MsgType::kAnswerBatch;
  for (const auto& answer : wire) {
    gkx::net::WireAnswer out;
    if (answer.ok()) {
      out.answer = *answer;
    } else {
      out.status = answer.status();
    }
    response.answers.push_back(std::move(out));
  }

  const Codec codec = TimeCodec(request, response);

  // Twin A as a router, twin B shard by shard on the same sub-batches.
  std::vector<uint64_t> twin_hashes;
  const uint64_t a0 = NowNs();
  if (single) {
    auto answer = twin_a()->Submit(requests[0].doc_key, requests[0].query);
    twin_hashes.push_back(answer.ok() ? HashValue(answer->value) : 0);
  } else {
    for (const auto& answer : twin_a()->SubmitBatch(requests)) {
      twin_hashes.push_back(answer.ok() ? HashValue(answer->value) : 0);
    }
  }
  const uint64_t a1 = NowNs();
  const auto by_shard = SplitByShard(pairs);
  uint64_t shard_ns[kShards] = {0, 0};
  uint64_t shard_start[kShards] = {0, 0};
  std::vector<std::vector<uint64_t>> shard_hashes(kShards);
  for (int s = 0; s < kShards; ++s) {
    const auto& sub = by_shard[static_cast<size_t>(s)];
    if (sub.empty()) continue;
    auto& shard = twin_b()->shard(s);
    shard_start[s] = NowNs();
    if (single) {
      auto answer = shard.Submit(sub[0].doc_key, sub[0].query);
      shard_ns[s] = NowNs() - shard_start[s];
      shard_hashes[static_cast<size_t>(s)].push_back(
          answer.ok() ? HashValue(answer->value) : 0);
    } else {
      auto answers = shard.SubmitBatch(sub);
      shard_ns[s] = NowNs() - shard_start[s];
      for (const auto& answer : answers) {
        shard_hashes[static_cast<size_t>(s)].push_back(
            answer.ok() ? HashValue(answer->value) : 0);
      }
    }
  }

  // Both twins must answer exactly what the wire answered.
  std::vector<size_t> shard_pos(kShards, 0);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const uint64_t wire_hash = wire[k].ok() ? HashValue(wire[k]->value) : 0;
    const size_t s = static_cast<size_t>(twin_b_->router->ShardOf(
        inputs_.keys[static_cast<size_t>(pairs[k].doc)]));
    if (twin_hashes[k] != wire_hash ||
        shard_hashes[s][shard_pos[s]++] != wire_hash) {
      ++twin_mismatches_;
    }
  }
  if (!counting_) return;

  const int64_t id = next_request_++;
  const int32_t root = spans_.Add("net.wire", -1, id, t0, t1);
  spans_.Add("net.codec", root, id, codec.start_ns, codec.end_ns);
  const int32_t router = spans_.Add("service.router", root, id, a0, a1);
  uint64_t slowest = 0;
  uint64_t total = 0;
  int active = 0;
  for (int s = 0; s < kShards; ++s) {
    if (shard_ns[s] == 0) continue;
    spans_.Add("service.shard", router, id, shard_start[s],
               shard_start[s] + shard_ns[s], /*parallel=*/true);
    slowest = std::max(slowest, shard_ns[s]);
    total += shard_ns[s];
    ++active;
  }

  ++wire_requests_;
  ++read_requests_;
  answers_ += static_cast<int64_t>(pairs.size());
  syscalls_ += syscalls;
  payload_bytes_ += codec.payload_bytes;
  codec_us_ += Us(codec.end_ns - codec.start_ns);
  transport_us_ += Us(t1 - t0) - Us(a1 - a0);
  scatter_us_ += Us(a1 - a0) - Us(slowest);
  shard_us_ += Us(total);
  if (active > 0) {
    skew_sum_ += static_cast<double>(slowest) /
                 (static_cast<double>(total) / active);
    ++skew_batches_;
  }
}

void Tracer::OnUpdate(int32_t doc, const gkx::xml::SubtreeEdit& edit,
                      bool acked, uint64_t t0, uint64_t t1, int64_t syscalls,
                      uint64_t apply_edit_ns) {
  if (!acked) return;  // the twins only see what the wire stack accepted
  using gkx::net::Message;
  using gkx::net::MsgType;
  const std::string& key = inputs_.keys[static_cast<size_t>(doc)];
  Message request;
  request.type = MsgType::kUpdate;
  request.doc_key = key;
  request.edit = edit;
  Message response;
  response.type = MsgType::kStatusReply;

  const Codec codec = TimeCodec(request, response);

  const uint64_t a0 = NowNs();
  const bool durable_ok = twin_a()->UpdateDocument(key, edit).ok();
  const uint64_t a1 = NowNs();
  const bool memory_ok = twin_b()->UpdateDocument(key, edit).ok();
  const uint64_t b1 = NowNs();
  if (!durable_ok || !memory_ok) ++twin_mismatches_;
  // Keep twin subscription work out of the next request's timings.
  twin_a()->FlushSubscriptions();
  twin_b()->FlushSubscriptions();
  if (!counting_) return;

  const int64_t id = next_request_++;
  const int32_t root = spans_.Add("net.wire", -1, id, t0, t1);
  spans_.Add("net.codec", root, id, codec.start_ns, codec.end_ns);
  const int32_t durable = spans_.Add("wal.durable_update", root, id, a0, a1);
  const int32_t store = spans_.Add("store.update", durable, id, a1, b1);
  spans_.Add("xml.apply_edit", store, id, a1, a1 + apply_edit_ns);

  ++wire_requests_;
  ++updates_;
  syscalls_ += syscalls;
  codec_us_ += Us(codec.end_ns - codec.start_ns);
  transport_us_ += Us(t1 - t0) - Us(a1 - a0);
  wal_us_ += Us(a1 - a0) - Us(b1 - a1);
  store_update_us_ += Us(b1 - a1);
  apply_edit_us_ += Us(apply_edit_ns);
  update_ns_.push_back(t1 - t0);
}

void Tracer::Report(Metrics* m) const {
  const double requests = static_cast<double>(wire_requests_);
  const double updates = static_cast<double>(updates_);
  m->Add("net.syscalls_per_request", Ratio(static_cast<double>(syscalls_), requests), "count");
  m->Add("net.payload_bytes_per_answer",
         Ratio(static_cast<double>(payload_bytes_), static_cast<double>(answers_)), "bytes");
  m->Add("net.codec_us_per_request", Ratio(codec_us_, requests), "us");
  m->Add("net.transport_us_per_request", Ratio(transport_us_, requests), "us");
  m->Add("router.scatter_us_per_batch",
         Ratio(scatter_us_, static_cast<double>(read_requests_)), "us");
  m->Add("router.shard_skew",
         skew_batches_ == 0 ? 1.0 : skew_sum_ / static_cast<double>(skew_batches_),
         "ratio");
  m->Add("shard.us_per_request", Ratio(shard_us_, static_cast<double>(answers_)), "us");
  m->Add("xml.ingest_mb_per_s",
         Ratio(static_cast<double>(ingest_bytes_) / (1 << 20), ingest_s_), "MiB/s");
  m->Add("wal.us_per_update", Ratio(wal_us_, updates), "us");
  m->Add("store.update_us", Ratio(store_update_us_, updates), "us");
  m->Add("xml.apply_edit_us", Ratio(apply_edit_us_, updates), "us");
  m->Add("wal.update_p90_us", QuantileUs(update_ns_, 0.90), "us");
  m->Add("wal.update_p99_us", QuantileUs(update_ns_, 0.99), "us");
  m->Add("wal.update_samples", static_cast<double>(update_ns_.size()), "count");
}

void Tracer::ReportBudget(Metrics* m) const {
  double end_to_end_us = 0;
  const auto self = spans_.SelfTimesUs("net.wire", &end_to_end_us);
  const double requests = static_cast<double>(std::max<int64_t>(wire_requests_, 1));
  double covered = 0;
  std::printf("  layer budget per wire request (self time, us):\n");
  for (const auto& [name, us] : self) {
    covered += us;
    std::printf("    %-22s %12.3f  %5.1f%%\n", name.c_str(), us / requests,
                100.0 * Ratio(us, end_to_end_us));
  }
  std::printf("    %-22s %12.3f\n", "end-to-end", end_to_end_us / requests);
  m->Add("trace.residual_us_per_request", (end_to_end_us - covered) / requests, "us");
}

void Tracer::RunCensus(Metrics* m) {
  double compile_us = 0;
  std::vector<gkx::eval::Engine::Plan> plans;
  for (const std::string& text : inputs_.queries) {
    const uint64_t t0 = NowNs();
    auto plan = gkx::eval::Engine::Compile(text);
    compile_us += Us(NowNs() - t0);
    GKX_CHECK(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  m->Add("plan.compile_us", compile_us / static_cast<double>(plans.size()), "us");

  std::map<int32_t, std::unique_ptr<gkx::xml::DocumentIndex>> indexes;
  std::map<std::string, std::pair<double, int64_t>> by_route;  // (us, count)
  for (size_t i = 0; i < inputs_.census.size(); ++i) {
    const Pair& pair = inputs_.census[i];
    const gkx::xml::Document& doc = inputs_.base[static_cast<size_t>(pair.doc)];
    const auto& plan = plans[static_cast<size_t>(pair.query)];
    std::string route;
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    if (plan.fragment.in_pf) {
      auto& index = indexes[pair.doc];
      if (index == nullptr) index = std::make_unique<gkx::xml::DocumentIndex>(doc);
      t0 = NowNs();
      auto nodes = gkx::service::TryIndexedPath(*index, plan.query);
      t1 = NowNs();
      if (nodes.has_value()) route = "pf-indexed";
    }
    if (route.empty()) {
      gkx::eval::Engine engine;
      t0 = NowNs();
      auto answer = engine.RunPlan(doc, plan);
      t1 = NowNs();
      GKX_CHECK(answer.ok());
      route = RouteOf(answer->evaluator);
    }
    spans_.Add("eval." + route, -1, static_cast<int64_t>(i), t0, t1);
    by_route[route].first += Us(t1 - t0);
    ++by_route[route].second;
  }
  for (const char* route : kEvalRoutes) {
    const auto it = by_route.find(route);
    m->Add(std::string("eval.us_per_query.") + route,
           it == by_route.end() ? 0.0
                                : it->second.first / static_cast<double>(it->second.second),
           "us");
  }
}

// ------------------------------------------------------------------ run

namespace {

struct WalCounters {
  double records = 0;
  double bytes = 0;
  double fsyncs = 0;
};

WalCounters ReadWal(const Router& router) {
  WalCounters out;
  auto doc = gkx::obs::json::Parse(router.ExportStats(gkx::service::StatsFormat::kJson));
  if (!doc.ok()) return out;
  auto number = [&doc](const char* path) {
    const auto* value = doc->FindPath(path);
    return value != nullptr && value->is_number() ? value->AsNumber() : 0.0;
  };
  out.records = number("metrics.wal.records");
  out.bytes = number("metrics.wal.bytes");
  out.fsyncs = number("metrics.wal.fsync_batch_ms.count");
  return out;
}

/// The router's own counters against the benchmark's tallies (warm-up
/// included). Returns the mismatches.
std::vector<std::string> Reconcile(const std::string& json, const Tally& tally) {
  std::vector<std::string> problems;
  auto doc = gkx::obs::json::Parse(json);
  if (!doc.ok()) return {"stats document does not parse"};
  auto check = [&](const char* path, double expected) {
    const auto* value = doc->FindPath(path);
    const double got = value != nullptr && value->is_number() ? value->AsNumber() : -1;
    if (got != expected) {
      char line[160];
      std::snprintf(line, sizeof line, "stats %s = %.0f, benchmark counted %.0f",
                    path, got, expected);
      problems.emplace_back(line);
    }
  };
  check("service.requests", static_cast<double>(tally.read_requests));
  check("service.failures", static_cast<double>(tally.error_statuses));
  check("metrics.update.count",
        static_cast<double>(tally.registrations + tally.acked_updates));
  const auto* hits = doc->FindPath("answer_cache.hits");
  const auto* misses = doc->FindPath("answer_cache.misses");
  const double lookups = hits != nullptr && misses != nullptr
                             ? hits->AsNumber() + misses->AsNumber()
                             : -1;
  if (lookups != static_cast<double>(tally.read_requests - tally.error_statuses)) {
    problems.push_back("stats answer_cache hits + misses = " +
                       std::to_string(static_cast<int64_t>(lookups)) +
                       ", benchmark counted " +
                       std::to_string(tally.read_requests - tally.error_statuses));
  }
  return problems;
}

/// The untraced base of trace.overhead_ratio: the same set-up and a
/// --seconds window on a fresh stack, nothing traced. Returns the window's
/// read round trips in request order.
std::vector<uint64_t> UntracedReads(const RunOptions& options,
                                    const Inputs& inputs,
                                    const std::string& wal_dir,
                                    RunResult* result) {
  Mirror mirror(inputs);
  AnswerChecker checker;
  Runner runner(inputs, &result->tally, &checker, &mirror);
  NotifyLog notes;
  std::vector<uint64_t> reads;
  {
    std::unique_ptr<Stack> stack;
    auto ready = SetUpStack(&runner, &notes, wal_dir, &stack);
    if (!ready.ok()) {
      result->problems.push_back("untraced baseline: " + ready.status().ToString());
      return reads;
    }
    reads = runner.Window(stack.get(), notes, options.seconds, 0, nullptr).read_rtt.ns;
  }
  PinCallingThread(CpuRole::kAll);
  gkx::ThreadPool pool(kPoolWidth);
  VerifyAnswers(inputs, mirror, checker, &pool, result);
  return reads;
}

}  // namespace

RunResult RunTraced(const RunOptions& options, const Inputs& inputs) {
  RunResult result;
  const std::string wal_dir = options.work_dir + "/wal";
  const std::string twin_wal_dir = options.work_dir + "/twin_wal";
  std::vector<uint64_t> untraced_reads =
      UntracedReads(options, inputs, wal_dir, &result);
  if (!result.problems.empty()) return result;

  // The traced run keeps its own tally: the reconciliation compares it with
  // the counters of the one router it drove.
  Tally tally;
  Mirror mirror(inputs);
  AnswerChecker checker;
  Runner runner(inputs, &tally, &checker, &mirror);
  NotifyLog notes;
  Metrics& m = result.metrics;
  auto fail = [&result](const std::string& what) {
    result.problems.push_back(what);
    return result;
  };
  if (!ResetDir(wal_dir).ok() || !ResetDir(twin_wal_dir).ok()) {
    return fail("cannot reset the WAL roots");
  }
  auto opened = OpenStack(wal_dir, nullptr, true);
  if (!opened.ok()) return fail("open: " + opened.status().ToString());
  std::unique_ptr<Stack> stack = std::move(opened).value();
  Router* router = stack->router.get();
  auto tracer = std::make_unique<Tracer>(inputs, stack->pool);
  Status traced = tracer->Open(twin_wal_dir);
  if (!traced.ok()) return fail("twins: " + traced.ToString());
  Status ready = runner.SetUp(stack.get(), &notes, tracer.get());
  if (!ready.ok()) return fail("set-up: " + ready.ToString());

  tracer->StartWindow();
  const auto before = router->Stats();
  const WalCounters wal_before = ReadWal(*router);
  const Samples window = runner.Window(stack.get(), notes, options.seconds,
                                       inputs.traced_iterations, tracer.get());
  const auto after = router->Stats();
  const WalCounters wal_after = ReadWal(*router);

  // Stats document: saved for tools/check_stats_json (run.py runs it) and
  // reconciled here against what this run sent.
  const std::string stats_json = router->ExportStats(gkx::service::StatsFormat::kJson);
  {
    std::ofstream out(options.work_dir + "/stats.json");
    out << stats_json;
  }
  for (auto& problem : Reconcile(stats_json, tally)) result.problems.push_back(problem);

  tracer->Report(&m);
  const double reads = static_cast<double>(after.requests - before.requests);
  const double updates = static_cast<double>(window.updates);
  const auto& pc0 = before.plan_cache;
  const auto& pc1 = after.plan_cache;
  m.Add("plan_cache.hit_ratio",
        Ratio(static_cast<double>(pc1.hits + pc1.canonical_hits - pc0.hits - pc0.canonical_hits),
              static_cast<double>(pc1.Lookups() - pc0.Lookups())),
        "ratio");
  const auto& ac0 = before.answer_cache;
  const auto& ac1 = after.answer_cache;
  m.Add("answer_cache.hit_ratio",
        Ratio(static_cast<double>(ac1.hits - ac0.hits),
              static_cast<double>(ac1.Lookups() - ac0.Lookups())),
        "ratio");
  m.Add("answer_cache.evictions_per_request",
        Ratio(static_cast<double>(ac1.evictions - ac0.evictions), reads), "count");
  m.Add("answer_cache.invalidations_per_update",
        Ratio(static_cast<double>(ac1.invalidations - ac0.invalidations), updates), "count");
  m.Add("answer_cache.retained_per_update",
        Ratio(static_cast<double>(ac1.retained - ac0.retained), updates), "count");
  const auto& sc0 = before.subscriptions;
  const auto& sc1 = after.subscriptions;
  const double evaluations = static_cast<double>(sc1.evaluations - sc0.evaluations);
  const double skipped = static_cast<double>(sc1.skipped_disjoint - sc0.skipped_disjoint);
  const double coalesced = static_cast<double>(sc1.coalesced - sc0.coalesced);
  m.Add("subs.evaluations_per_update", Ratio(evaluations, updates), "count");
  m.Add("subs.skipped_ratio", Ratio(skipped, skipped + evaluations + coalesced), "ratio");
  m.Add("subs.backlog_at_end", static_cast<double>(window.backlog), "count");
  m.Add("subs.notify_p90_us", QuantileUs(window.notify_delay.ns, 0.90), "us");
  m.Add("subs.notify_p99_us", QuantileUs(window.notify_delay.ns, 0.99), "us");
  m.Add("subs.notify_samples", static_cast<double>(window.notify_delay.ns.size()), "count");
  m.Add("wal.records_per_fsync",
        Ratio(wal_after.records - wal_before.records, wal_after.fsyncs - wal_before.fsyncs),
        "count");
  m.Add("wal.bytes_per_update", Ratio(wal_after.bytes - wal_before.bytes, updates), "bytes");
  // Plan segments the window evaluated, by route.
  int64_t segments = 0;
  std::map<std::string, int64_t> by_route;
  for (const auto& [label, count] : after.segment_route_counts) {
    const auto it = before.segment_route_counts.find(label);
    const int64_t evaluated =
        count - (it == before.segment_route_counts.end() ? 0 : it->second);
    by_route[RouteOf(label)] += evaluated;
    segments += evaluated;
  }
  for (const char* route : kSegmentRoutes) {
    m.Add(std::string("eval.share.") + route,
          Ratio(static_cast<double>(by_route[route]), static_cast<double>(segments)),
          "ratio");
  }
  tracer->RunCensus(&m);
  tracer->ReportBudget(&m);
  // Both windows start at the same request after identical set-ups; the
  // traced one is shorter, so compare it with the same leading requests.
  untraced_reads.resize(std::min(untraced_reads.size(), window.read_rtt.ns.size()));
  m.Add("trace.overhead_ratio",
        Ratio(QuantileUs(window.read_rtt.ns, 0.5), QuantileUs(untraced_reads, 0.5)),
        "ratio");
  if (tracer->twin_mismatches() > 0) {
    tally.failed += tracer->twin_mismatches();
    result.problems.push_back(std::to_string(tracer->twin_mismatches()) +
                              " twin answers differ from the wire answers");
  }
  if (window.revision_drift) result.problems.push_back("store revisions drifted");
  Status spans = tracer->WriteSpans(options.work_dir + "/spans.tsv");
  if (!spans.ok()) result.problems.push_back(spans.ToString());
  tracer.reset();  // the twins run on the served stack's pool

  double recover_s = 0;
  auto lost = runner.CrashAndRecover(std::move(stack), wal_dir, &recover_s);
  if (!lost.ok()) {
    result.problems.push_back("recovery: " + lost.status().ToString());
  } else if (*lost > 0) {
    result.problems.push_back(std::to_string(*lost) +
                              " documents lost acknowledged updates");
  }
  m.Add("wal.recover_s", recover_s, "s");
  {
    gkx::ThreadPool pool(kPoolWidth);
    RunResult verified;
    VerifyAnswers(inputs, mirror, checker, &pool, &verified);
    tally.failed += verified.tally.failed;
    for (auto& problem : verified.problems) result.problems.push_back(problem);
  }
  result.tally.attempted += tally.attempted;
  result.tally.failed += tally.failed;
  return result;
}

}  // namespace wirebench
