// The served stack, the closed-loop client and the checks that follow the
// timed window.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "bench.hpp"
#include "eval/engine.hpp"
#include "obs/trace.hpp"
#include "testkit/reference_edit.hpp"
#include "trace.hpp"

namespace wirebench {

using gkx::obs::NowNs;

// ------------------------------------------------------------------ helpers

uint64_t HashValue(const gkx::eval::Value& value) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(value.type());
  auto mix = [&h](uint64_t word) {
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  };
  switch (value.type()) {
    case gkx::xpath::ValueType::kBoolean:
      mix(value.boolean() ? 1 : 0);
      break;
    case gkx::xpath::ValueType::kNumber: {
      uint64_t bits = 0;
      const double number = value.number();
      std::memcpy(&bits, &number, sizeof bits);
      mix(bits);
      break;
    }
    case gkx::xpath::ValueType::kString:
      for (unsigned char c : value.string()) mix(c);
      mix(value.string().size());
      break;
    case gkx::xpath::ValueType::kNodeSet:
      for (gkx::xml::NodeId id : value.nodes()) mix(static_cast<uint64_t>(id));
      mix(value.nodes().size());
      break;
  }
  return h;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t StealTicks() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long field[8] = {};
  const int read =
      std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &field[0], &field[1], &field[2], &field[3], &field[4],
                  &field[5], &field[6], &field[7]);
  std::fclose(stat);
  return read == 8 ? static_cast<int64_t>(field[7]) : 0;
}

double QuantileUs(std::vector<uint64_t> samples_ns, double q) {
  if (samples_ns.empty()) return 0.0;
  const size_t rank = std::min(
      samples_ns.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples_ns.size())));
  std::nth_element(samples_ns.begin(),
                   samples_ns.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples_ns.end());
  return static_cast<double>(samples_ns[rank]) / 1e3;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Status ResetDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) return gkx::InternalError("cannot clear " + path + ": " + ec.message());
  std::filesystem::create_directories(path, ec);
  if (ec) return gkx::InternalError("cannot create " + path + ": " + ec.message());
  return Status::Ok();
}

// ------------------------------------------------------------ answer checks

int64_t AnswerChecker::Verify(const Inputs& inputs, const Mirror& mirror,
                              gkx::ThreadPool* pool) const {
  std::vector<gkx::eval::Engine::Plan> plans;
  for (const std::string& text : inputs.queries) {
    auto plan = gkx::eval::Engine::Compile(text);
    GKX_CHECK(plan.ok());
    plans.push_back(std::move(plan).value());
  }
  std::vector<std::vector<std::pair<uint64_t, const Slot*>>> by_doc(
      inputs.keys.size());
  for (const auto& [key, slot] : slots_) {
    by_doc[key & 0xffff].emplace_back(key, &slot);
  }
  std::atomic<int64_t> wrong{0};
  pool->ParallelFor(static_cast<int>(by_doc.size()), [&](int d) {
    auto& keys = by_doc[static_cast<size_t>(d)];
    // Revision-major order: walk the document forward through its edits
    // once, evaluating each (revision, query) as it becomes current.
    std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
      return std::make_pair(a.first >> 32, (a.first >> 16) & 0xffff) <
             std::make_pair(b.first >> 32, (b.first >> 16) & 0xffff);
    });
    const gkx::xml::Document* at = &inputs.base[static_cast<size_t>(d)];
    gkx::xml::Document state;
    uint64_t revision = 0;
    int64_t local_wrong = 0;
    for (const auto& [key, slot] : keys) {
      while (revision < (key >> 32)) {
        auto next = gkx::xml::ApplyEdit(
            *at, EditFor(inputs, mirror.steps[static_cast<size_t>(d)][revision], *at));
        GKX_CHECK(next.ok());
        state = std::move(next).value();
        at = &state;
        ++revision;
      }
      gkx::eval::Engine engine;
      auto answer = engine.RunPlan(*at, plans[(key >> 16) & 0xffff]);
      const bool right = answer.ok() && HashValue(answer->value) == slot->hash;
      local_wrong += right ? slot->mismatches : slot->count;
    }
    wrong.fetch_add(local_wrong);
  });
  return wrong.load();
}

void VerifyAnswers(const Inputs& inputs, const Mirror& mirror,
                   const AnswerChecker& checker, gkx::ThreadPool* pool,
                   RunResult* result) {
  const int64_t wrong = checker.Verify(inputs, mirror, pool);
  if (wrong > 0) {
    result->tally.failed += wrong;
    result->problems.push_back(std::to_string(wrong) +
                               " answers differ from the reference");
  }
}

// ------------------------------------------------------------ notifications

void NotifyLog::Record(const gkx::mview::SubscriptionEvent& event) {
  const uint64_t now = NowNs();
  int32_t doc = -1;
  const std::string& key = event.doc_key;
  if (key.size() > 3) {
    std::from_chars(key.data() + 3, key.data() + key.size(), doc);
  }
  std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back({doc, event.revision, now});
}

std::unordered_map<uint64_t, uint64_t> NotifyLog::FirstDelivery() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, uint64_t> first;
  for (const Note& note : notes_) {
    if (note.doc < 0 || note.revision < 0) continue;
    auto [it, inserted] = first.emplace(Key(note.doc, note.revision), note.at_ns);
    if (!inserted) it->second = std::min(it->second, note.at_ns);
  }
  return first;
}

// ------------------------------------------------------------------ stack

namespace {

Router::Options ServedOptions(gkx::ThreadPool* pool, const std::string& wal_dir) {
  Router::Options options;
  options.shards = kShards;
  options.pool = pool;
  options.shard.pool = pool;
  options.wal_dir = wal_dir;  // WAL defaults: fsync on, 200 us group commit
  return options;
}

std::vector<std::vector<gkx::net::WireRequest>> WireBatches(
    const Inputs& inputs, const std::vector<std::vector<Pair>>& batches) {
  std::vector<std::vector<gkx::net::WireRequest>> out;
  out.reserve(batches.size());
  for (const auto& batch : batches) {
    std::vector<gkx::net::WireRequest> wire;
    wire.reserve(batch.size());
    for (const Pair& pair : batch) {
      wire.push_back({inputs.keys[static_cast<size_t>(pair.doc)],
                      inputs.queries[static_cast<size_t>(pair.query)]});
    }
    out.push_back(std::move(wire));
  }
  return out;
}

}  // namespace

void PinCallingThread(CpuRole role) {
  struct Sets {
    cpu_set_t all, front, pool;
  };
  static const Sets sets = [] {
    Sets out;
    CPU_ZERO(&out.all);
    sched_getaffinity(0, sizeof out.all, &out.all);
    out.pool = out.all;
    CPU_ZERO(&out.front);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &out.all)) {
        CPU_SET(cpu, &out.front);
        CPU_CLR(cpu, &out.pool);
        break;
      }
    }
    return out;
  }();
  const cpu_set_t& set = role == CpuRole::kAll     ? sets.all
                         : role == CpuRole::kFront ? sets.front
                                                   : sets.pool;
  sched_setaffinity(0, sizeof set, &set);
}

Result<std::unique_ptr<Stack>> OpenStack(const std::string& wal_dir,
                                         gkx::ThreadPool* pool, bool serve) {
  auto stack = std::make_unique<Stack>();
  // Threads inherit the affinity of the thread that starts them.
  if (pool == nullptr) {
    PinCallingThread(CpuRole::kPool);
    stack->own_pool = std::make_unique<gkx::ThreadPool>(kPoolWidth);
    pool = stack->own_pool.get();
  }
  PinCallingThread(CpuRole::kFront);
  stack->pool = pool;
  stack->router = std::make_unique<Router>(ServedOptions(pool, wal_dir));
  for (int s = 0; s < kShards; ++s) {
    const auto& shard = stack->router->shard(s);
    if (!wal_dir.empty() && !shard.wal_enabled()) return shard.wal_status();
  }
  if (serve) {
    stack->server = std::make_unique<gkx::net::Server>(
        stack->router.get(), gkx::net::Server::Options{});
    Status started = stack->server->Start();
    if (!started.ok()) return started;
    Status connected =
        stack->client.Connect("127.0.0.1", stack->server->port());
    if (!connected.ok()) return connected;
  }
  return stack;
}

Result<double> SetUpStack(Runner* runner, NotifyLog* notes,
                          const std::string& wal_dir,
                          std::unique_ptr<Stack>* stack) {
  Status cleared = ResetDir(wal_dir);
  if (!cleared.ok()) return cleared;
  const uint64_t t0 = NowNs();
  auto opened = OpenStack(wal_dir, nullptr, /*serve=*/true);
  if (!opened.ok()) return opened.status();
  *stack = std::move(opened).value();
  Status ready = runner->SetUp(stack->get(), notes, nullptr);
  if (!ready.ok()) return ready;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ----------------------------------------------------------------- runner

Runner::Runner(const Inputs& inputs, Tally* tally, AnswerChecker* checker,
               Mirror* mirror)
    : inputs_(inputs),
      tally_(tally),
      checker_(checker),
      mirror_(mirror),
      wire_warmup_(WireBatches(inputs, inputs.warmup)),
      wire_ring_(WireBatches(inputs, inputs.ring)) {}

gkx::xml::SubtreeEdit EditFor(const Inputs& inputs, int64_t step,
                              const gkx::xml::Document& doc) {
  gkx::Rng rng(inputs.seed * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(step));
  return gkx::xml::RandomSubtreeEdit(&rng, doc, inputs.edit_options);
}

namespace {

constexpr uint64_t kSliceNs = static_cast<uint64_t>(kSliceSeconds * 1e9);

void AddMark(Samples* samples, uint64_t now) {
  samples->marks.push_back({now, CpuSeconds(), StealTicks(), samples->answers,
                            samples->updates});
}

// The slice a sample taken now belongs to.
int32_t CurrentSlice(const Samples& samples) {
  return static_cast<int32_t>(samples.marks.size()) - 1;
}

template <typename F>
double SliceMedian(const Samples& samples, const std::vector<bool>& keep,
                   F value) {
  std::vector<double> slices;
  for (size_t i = 1; i < samples.marks.size(); ++i) {
    if (keep[i - 1]) {
      slices.push_back(value(samples.marks[i - 1], samples.marks[i]));
    }
  }
  return Median(std::move(slices));
}

}  // namespace

std::vector<uint64_t> Latencies::In(const std::vector<bool>& keep) const {
  std::vector<uint64_t> out;
  for (size_t i = 0; i < ns.size(); ++i) {
    const auto s = static_cast<size_t>(slice[i]);
    if (s < keep.size() && keep[s]) out.push_back(ns[i]);
  }
  return out;
}

std::vector<bool> CalmSlices(const Samples& samples) {
  std::vector<double> steal;
  for (size_t i = 1; i < samples.marks.size(); ++i) {
    steal.push_back(static_cast<double>(samples.marks[i].steal_ticks -
                                        samples.marks[i - 1].steal_ticks));
  }
  const double median = Median(steal);
  std::vector<bool> calm;
  for (double ticks : steal) calm.push_back(ticks <= median);
  return calm;
}

double SliceAnswersPerSecond(const Samples& samples,
                             const std::vector<bool>& keep) {
  return SliceMedian(samples, keep, [](const Mark& a, const Mark& b) {
    return static_cast<double>(b.answers - a.answers) * 1e9 /
           static_cast<double>(b.at_ns - a.at_ns);
  });
}

double SliceCpuUsPerOp(const Samples& samples, const std::vector<bool>& keep) {
  return SliceMedian(samples, keep, [](const Mark& a, const Mark& b) {
    const int64_t ops = b.answers - a.answers + b.updates - a.updates;
    return ops == 0 ? 0.0 : (b.cpu_s - a.cpu_s) * 1e6 / static_cast<double>(ops);
  });
}

void Runner::RecordAnswers(const std::vector<Pair>& pairs,
                           const std::vector<Result<Answer>>& answers,
                           Samples* samples) {
  tally_->attempted += static_cast<int64_t>(pairs.size());
  tally_->read_requests += static_cast<int64_t>(pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    const Pair& pair = pairs[k];
    if (k < answers.size() && answers[k].ok()) {
      checker_->Observe(pair.doc, mirror_->revision(pair.doc), pair.query,
                        HashValue(answers[k]->value));
      if (samples != nullptr) ++samples->answers;
    } else {
      ++tally_->error_statuses;
      ++tally_->failed;
    }
  }
}

Status Runner::SetUp(Stack* stack, NotifyLog* notes, Tracer* tracer) {
  for (size_t d = 0; d < inputs_.keys.size(); ++d) {
    Status registered = stack->client.RegisterXml(inputs_.keys[d], inputs_.xml[d]);
    ++tally_->registrations;
    if (!registered.ok()) return registered;
    if (tracer != nullptr) tracer->OnRegister(static_cast<int32_t>(d));
  }
  Status subscribed = Subscribe(stack->router.get(), notes);
  if (!subscribed.ok()) return subscribed;
  if (tracer != nullptr) {
    for (Router* twin : {tracer->twin_a(), tracer->twin_b()}) {
      subscribed = Subscribe(twin, nullptr);
      if (!subscribed.ok()) return subscribed;
      twin->FlushSubscriptions();
    }
  }
  stack->router->FlushSubscriptions();
  for (size_t i = 0; i < inputs_.warmup.size(); ++i) {
    RecordAnswers(inputs_.warmup[i], stack->client.SubmitBatch(wire_warmup_[i]),
                  nullptr);
    if (tracer != nullptr) tracer->OnWarmup(inputs_.warmup[i]);
  }
  if (inputs_.workload == Workload::kColdEval) {
    for (int s = 0; s < kShards; ++s) {
      if (stack->router->shard(s).answer_cache().counters().evictions == 0) {
        return gkx::InternalError("cold_eval warm-up ended before eviction");
      }
    }
  }
  return Status::Ok();
}

Status Runner::Subscribe(Router* router, NotifyLog* notes) const {
  for (int32_t d : inputs_.churn_docs) {
    for (int32_t q : inputs_.standing) {
      auto id = router->Subscribe(
          inputs_.keys[static_cast<size_t>(d)],
          inputs_.queries[static_cast<size_t>(q)],
          [notes](const gkx::mview::SubscriptionEvent& event) {
            if (notes != nullptr) notes->Record(event);
          });
      if (!id.ok()) return id.status();
    }
  }
  return Status::Ok();
}

void Runner::ReadBatch(Stack* stack, Tracer* tracer, Samples* samples) {
  const size_t i = ring_next_++ % inputs_.ring.size();
  const int64_t io_before = tracer != nullptr ? tracer->SyscallCount() : 0;
  const uint64_t t0 = NowNs();
  std::vector<Result<Answer>> answers = stack->client.SubmitBatch(wire_ring_[i]);
  const uint64_t t1 = NowNs();
  samples->read_rtt.Add(t1 - t0, CurrentSlice(*samples));
  RecordAnswers(inputs_.ring[i], answers, samples);
  if (tracer != nullptr) {
    const int64_t syscalls =
        tracer->SyscallsBetween(io_before, tracer->SyscallCount());
    tracer->OnRead(inputs_.ring[i], answers, /*single=*/false, t0, t1, syscalls);
  }
}

void Runner::Step(Stack* stack, Tracer* tracer, Samples* samples,
                  ChurnTrack* track) {
  const int64_t step_id = churn_next_++;
  const ChurnStep& churn =
      inputs_.churn[static_cast<size_t>(step_id) % inputs_.churn.size()];
  const size_t d = static_cast<size_t>(churn.doc);
  const std::string& key = inputs_.keys[d];
  const gkx::xml::SubtreeEdit edit =
      EditFor(inputs_, step_id, mirror_->current[d]);
  const uint64_t a0 = NowNs();
  auto edited = gkx::xml::ApplyEdit(mirror_->current[d], edit);
  const uint64_t a1 = NowNs();
  GKX_CHECK(edited.ok());

  const int64_t io_before = tracer != nullptr ? tracer->SyscallCount() : 0;
  const uint64_t t0 = NowNs();
  const Status acked = stack->client.UpdateDocument(key, edit);
  const uint64_t t1 = NowNs();
  ++tally_->attempted;
  if (tracer != nullptr) {
    const int64_t syscalls =
        tracer->SyscallsBetween(io_before, tracer->SyscallCount());
    tracer->OnUpdate(churn.doc, edit, acked.ok(), t0, t1, syscalls, a1 - a0);
  }
  if (acked.ok()) {
    ++tally_->acked_updates;
    ++samples->updates;
    samples->update_rtt.Add(t1 - t0, CurrentSlice(*samples));
    const size_t shard = static_cast<size_t>(stack->router->ShardOf(key));
    track->sent.push_back({churn.doc, ++track->shard_revision[shard], t0,
                           CurrentSlice(*samples)});
    mirror_->current[d] = std::move(edited).value();
    mirror_->steps[d].push_back(step_id);
  } else {
    ++tally_->error_statuses;
    ++tally_->failed;
  }

  const std::vector<Pair> reread{{churn.doc, churn.reread_query}};
  const std::string& query =
      inputs_.queries[static_cast<size_t>(churn.reread_query)];
  const int64_t reread_io = tracer != nullptr ? tracer->SyscallCount() : 0;
  const uint64_t r0 = NowNs();
  std::vector<Result<Answer>> answers;
  answers.push_back(stack->client.Submit(key, query));
  const uint64_t r1 = NowNs();
  RecordAnswers(reread, answers, samples);
  if (tracer != nullptr) {
    const int64_t syscalls =
        tracer->SyscallsBetween(reread_io, tracer->SyscallCount());
    tracer->OnRead(reread, answers, /*single=*/true, r0, r1, syscalls);
  }
}

Samples Runner::Window(Stack* stack, const NotifyLog& notes, double seconds,
                       int64_t iterations, Tracer* tracer) {
  Router* router = stack->router.get();
  // Each acknowledged update takes the next revision of its shard's store
  // (this client is the only writer), which is how a delivery is matched
  // to the update it reports.
  ChurnTrack track;
  for (int s = 0; s < kShards; ++s) {
    track.shard_revision.push_back(router->shard(s).documents().last_revision());
  }
  const uint64_t trickle_ns = static_cast<uint64_t>(kTrickleSeconds * 1e9);

  Samples samples;
  const uint64_t start = NowNs();
  const double cpu_start = CpuSeconds();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = start;
  uint64_t next_mark = start + kSliceNs;
  uint64_t next_step = start + trickle_ns;
  AddMark(&samples, start);
  for (int64_t i = 0; iterations > 0 ? i < iterations : now < deadline; ++i) {
    const bool trickle =
        iterations > 0 ? i % inputs_.trickle_every == inputs_.trickle_every - 1
                       : now >= next_step;
    if (trickle) {
      Step(stack, tracer, &samples, &track);
      next_step = NowNs() + trickle_ns;
    } else {
      ReadBatch(stack, tracer, &samples);
    }
    now = NowNs();
    if (now >= next_mark) {
      AddMark(&samples, now);
      next_mark += kSliceNs;
    }
  }
  if (samples.marks.size() == 1) AddMark(&samples, now);
  samples.wall_s = static_cast<double>(now - start) / 1e9;
  samples.cpu_s = CpuSeconds() - cpu_start;

  // Deliveries still pending when the window closed: evaluations the flush
  // has to run.
  const int64_t evaluations_before = router->Stats().subscriptions.evaluations;
  router->FlushSubscriptions();
  samples.backlog =
      router->Stats().subscriptions.evaluations - evaluations_before;

  const auto first = notes.FirstDelivery();
  for (const ChurnTrack::Sent& update : track.sent) {
    auto it = first.find(NotifyLog::Key(update.doc, update.revision));
    if (it != first.end() && it->second >= update.at_ns) {
      samples.notify_delay.Add(it->second - update.at_ns, update.slice);
    }
  }
  for (int s = 0; s < kShards; ++s) {
    if (router->shard(s).documents().last_revision() !=
        track.shard_revision[static_cast<size_t>(s)]) {
      samples.revision_drift = true;
    }
  }
  return samples;
}

Result<int64_t> Runner::CrashAndRecover(std::unique_ptr<Stack> stack,
                                        const std::string& wal_dir,
                                        double* recover_s) {
  stack->client.Close();
  stack->server->Stop();
  for (int s = 0; s < kShards; ++s) stack->router->shard(s).CrashWalForTest();
  stack.reset();

  PinCallingThread(CpuRole::kAll);
  gkx::ThreadPool pool(kPoolWidth);
  const uint64_t t0 = NowNs();
  Router reopened(ServedOptions(&pool, wal_dir));
  *recover_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (int s = 0; s < kShards; ++s) {
    if (!reopened.shard(s).wal_enabled()) return reopened.shard(s).wal_status();
  }
  int64_t lost = 0;
  for (size_t d = 0; d < inputs_.keys.size(); ++d) {
    const std::string& key = inputs_.keys[d];
    auto stored = reopened.shard(reopened.ShardOf(key)).documents().Get(key);
    if (stored == nullptr ||
        !gkx::testkit::ExhaustiveEquals(stored->doc(), mirror_->current[d])) {
      ++lost;
    }
  }
  tally_->failed += lost;
  return lost;
}

}  // namespace wirebench
