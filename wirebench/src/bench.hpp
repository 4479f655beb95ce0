// wirebench — the gkx wire-to-answer benchmark.
//
// One process serves a 2-shard ShardedQueryService behind a net::Server and
// drives it from one closed-loop net::Client connection. Two workloads share
// that served configuration and differ only in traffic:
//
//   hot_read   Zipf-popular reads that fit the answer cache: the request path
//              (framing, syscalls, scatter/stitch, plan- and answer-cache hit
//              path) without evaluation.
//   cold_eval  every (document, query) pair of a larger corpus in a seeded
//              order, 3x the answer cache: the paper's evaluators.
//
// Both carry an update trickle: one fsynced subtree edit of a subscribed
// document, then its re-read, every kTrickleSeconds (WAL, edit/index splice,
// invalidation and subscription delivery).
//
// The untraced run (--trace 0) prints the end-to-end metrics; the traced run
// (--trace 1) replays the same seeded stream against the wire stack and two
// in-process twins and prints per-layer metrics. Every answer is hashed in
// the loop and checked after the timed window against a fresh eval::Engine
// run on the client's mirror of the exact document revision.

#ifndef GKX_WIREBENCH_BENCH_HPP_
#define GKX_WIREBENCH_BENCH_HPP_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hpp"
#include "base/status.hpp"
#include "base/thread_pool.hpp"
#include "eval/engine.hpp"
#include "eval/value.hpp"
#include "mview/subscription.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/sharded_service.hpp"
#include "xml/document.hpp"
#include "xml/edit.hpp"
#include "xml/generator.hpp"

namespace wirebench {

using gkx::Result;
using gkx::Status;
using Router = gkx::service::ShardedQueryService;

// ------------------------------------------------------ served configuration
/// Shards behind the router, and the width of the one pool the router and
/// both shards share.
inline constexpr int kShards = 2;
inline constexpr int kPoolWidth = 2;
/// Threads that can be runnable at once: the client, the server's connection
/// thread and the pool. A WAL committer only runs while the client is
/// blocked on an update acknowledgement, so it takes the client's place.
inline constexpr int kBusyThreads = 2 + kPoolWidth;
/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;
/// Length of one throughput slice of a timed window.
inline constexpr double kSliceSeconds = 0.5;
/// The workloads' reads carry no updates; one churn step (an edit of one of
/// the subscribed documents, then its re-read) every kTrickleSeconds samples
/// update and notification latency across the whole window.
inline constexpr double kTrickleSeconds = 0.025;

enum class Workload { kHotRead, kColdEval };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* out);

struct Pair {
  int32_t doc = 0;
  int32_t query = 0;
};

/// One step of the update trickle: an edit of `doc`, then a re-read of it
/// with `reread_query`.
struct ChurnStep {
  int32_t doc = 0;
  int32_t reread_query = 0;
};

/// Everything a run sends, generated from the seed before any timing.
struct Inputs {
  Workload workload = Workload::kHotRead;
  uint64_t seed = 0;
  std::vector<std::string> keys;          // "doc<i>"
  std::vector<std::string> xml;           // RegisterXml payloads
  std::vector<gkx::xml::Document> base;   // parsed payloads: mirror revision 0
  int64_t xml_bytes = 0;
  std::vector<std::string> queries;
  /// Node-set queries subscribed on every churned document.
  std::vector<int32_t> standing;
  /// Read batches sent before timing starts.
  std::vector<std::vector<Pair>> warmup;
  /// The timed batches, sent round-robin.
  std::vector<std::vector<Pair>> ring;
  /// The update trickle's steps, used round-robin.
  std::vector<ChurnStep> churn;
  /// Documents the churn steps edit (subscriptions are placed on these).
  std::vector<int32_t> churn_docs;
  /// The traced window's length in batches and steps, and its batches per
  /// trickle step: about kTrickleSeconds of untraced reads.
  int64_t traced_iterations = 0;
  int trickle_every = 1;
  gkx::xml::RandomEditOptions edit_options;
  /// Distinct pairs the traced run re-evaluates per route (eval census).
  std::vector<Pair> census;
};

Result<Inputs> MakeInputs(Workload workload, uint64_t seed);

// ------------------------------------------------------------------ helpers
uint64_t HashValue(const gkx::eval::Value& value);
/// Process CPU time (user + sys, all threads).
double CpuSeconds();
/// CPU time the hypervisor has taken from the machine's CPUs so far
/// (steal, /proc/stat), in clock ticks; 0 where it is not reported.
int64_t StealTicks();
/// q-quantile (nearest rank) of nanosecond samples, in microseconds.
double QuantileUs(std::vector<uint64_t> samples_ns, double q);
double Median(std::vector<double> values);

/// The edit of churn step `step` against `doc`: RandomSubtreeEdit drawn from
/// a generator seeded by (run seed, step), so an edit is re-derived from its
/// step number and the revision it applies to instead of being stored.
gkx::xml::SubtreeEdit EditFor(const Inputs& inputs, int64_t step,
                              const gkx::xml::Document& doc);

/// The client's mirror of every document: the last acknowledged revision,
/// and the churn steps whose edits led there. steps[d][r] takes revision r
/// to r + 1.
struct Mirror {
  std::vector<gkx::xml::Document> current;
  std::vector<std::vector<int64_t>> steps;
  explicit Mirror(const Inputs& inputs)
      : current(inputs.base), steps(inputs.base.size()) {}
  int32_t revision(int32_t doc) const {
    return static_cast<int32_t>(steps[static_cast<size_t>(doc)].size());
  }
};

/// Answer hashes observed in the loop, keyed by (doc, mirror revision,
/// query). Verify() recomputes each key once with a fresh engine.
class AnswerChecker {
 public:
  void Observe(int32_t doc, int32_t revision, int32_t query, uint64_t hash) {
    Slot& slot = slots_[Key(doc, revision, query)];
    if (slot.count == 0) {
      slot.hash = hash;
    } else if (slot.hash != hash) {
      ++slot.mismatches;
    }
    ++slot.count;
  }
  /// Wrong answers: every observation of a key whose first hash differs
  /// from the reference, plus every later observation that differed from
  /// a correct first one.
  int64_t Verify(const Inputs& inputs, const Mirror& mirror,
                 gkx::ThreadPool* pool) const;

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t count = 0;
    int64_t mismatches = 0;
  };
  static uint64_t Key(int32_t doc, int32_t revision, int32_t query) {
    return static_cast<uint64_t>(doc) | static_cast<uint64_t>(query) << 16 |
           static_cast<uint64_t>(revision) << 32;
  }
  std::unordered_map<uint64_t, Slot> slots_;
};

/// Subscription deliveries, in arrival order.
class NotifyLog {
 public:
  struct Note {
    int32_t doc = 0;
    int64_t revision = 0;
    uint64_t at_ns = 0;
  };
  void Record(const gkx::mview::SubscriptionEvent& event);
  /// Earliest delivery time per (doc, revision).
  std::unordered_map<uint64_t, uint64_t> FirstDelivery() const;
  static uint64_t Key(int32_t doc, int64_t revision) {
    return static_cast<uint64_t>(doc) | static_cast<uint64_t>(revision) << 16;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Note> notes_;
};

/// One served stack. Destruction order is client, server, router, pool.
struct Stack {
  std::unique_ptr<gkx::ThreadPool> own_pool;
  gkx::ThreadPool* pool = nullptr;
  std::unique_ptr<Router> router;
  std::unique_ptr<gkx::net::Server> server;
  gkx::net::Client client;
};

/// Thread placement. The client, the server's accept and connection threads
/// and the WAL committers form one synchronous chain (each waits on the
/// next), so they share the first allowed CPU; the pool's workers get the
/// others. A hand-off along the chain is then a local context switch on
/// every run instead of a cross-CPU wake-up on some runs and not others.
enum class CpuRole { kAll, kFront, kPool };
/// Restricts the calling thread (and every thread it starts) to `role`.
void PinCallingThread(CpuRole role);

/// Builds a router (durable under `wal_dir` when non-empty) over `pool`, or
/// over a pool of its own when `pool` is null; `serve` adds the wire server
/// and a connected client.
Result<std::unique_ptr<Stack>> OpenStack(const std::string& wal_dir,
                                         gkx::ThreadPool* pool, bool serve);

class Runner;

/// Opens a served stack on a fresh WAL root and sets it up through
/// `runner`; returns setup_s: seconds from server start to the first
/// request a window may time.
Result<double> SetUpStack(Runner* runner, NotifyLog* notes,
                          const std::string& wal_dir,
                          std::unique_ptr<Stack>* stack);

/// Operation counts for the result line and the stats reconciliation.
struct Tally {
  int64_t attempted = 0;       // reads + updates sent over the wire
  int64_t failed = 0;          // error statuses + wrong answers + lost updates
  int64_t read_requests = 0;   // Submit/SubmitBatch requests sent
  int64_t error_statuses = 0;  // non-OK per-request statuses and acks
  int64_t registrations = 0;
  int64_t acked_updates = 0;
};

/// Cumulative loop counts at one instant of a timed window.
struct Mark {
  uint64_t at_ns = 0;
  double cpu_s = 0;
  int64_t steal_ticks = 0;
  int64_t answers = 0;
  int64_t updates = 0;
};

/// Latency samples of one kind, each with the slice (index into
/// Samples::marks) it was taken in.
struct Latencies {
  std::vector<uint64_t> ns;
  std::vector<int32_t> slice;
  void Add(uint64_t value_ns, int32_t in_slice) {
    ns.push_back(value_ns);
    slice.push_back(in_slice);
  }
  /// The samples taken in the slices `keep` marks.
  std::vector<uint64_t> In(const std::vector<bool>& keep) const;
};

/// Loop samples of one timed window.
struct Samples {
  /// Marks at the window's start and every kSliceSeconds after it. Slice i
  /// runs from marks[i] to marks[i + 1].
  std::vector<Mark> marks;
  Latencies read_rtt;      // one per wire SubmitBatch round trip
  Latencies update_rtt;    // one per acknowledged update
  Latencies notify_delay;  // update sent -> first delivery of its revision
  int64_t answers = 0;     // OK answers
  int64_t updates = 0;     // acknowledged updates
  double wall_s = 0;
  double cpu_s = 0;
  /// Subscription evaluations still pending when the loop stopped (run by
  /// the flush that follows it).
  int64_t backlog = 0;
  /// A shard's store revision moved other than by this client's
  /// acknowledged updates (notification matching is then void).
  bool revision_drift = false;
};

class Tracer;  // trace.hpp

/// Drives one workload against a served stack: set-up, timed window and
/// the durability check.
class Runner {
 public:
  using Answer = gkx::eval::Engine::Answer;

  Runner(const Inputs& inputs, Tally* tally, AnswerChecker* checker,
         Mirror* mirror);

  /// Ingest over the wire, standing queries, warm-up. With a tracer, the
  /// twins receive the same sequence.
  Status SetUp(Stack* stack, NotifyLog* notes, Tracer* tracer);
  /// Subscribes the standing queries on every churned document of
  /// `router`; deliveries go to `notes` (dropped when null).
  Status Subscribe(Router* router, NotifyLog* notes) const;
  /// The timed window: read batches with one churn step every
  /// kTrickleSeconds, until `seconds` pass. With `iterations` > 0 it runs
  /// exactly that many batches and steps instead, a step every
  /// Inputs::trickle_every, so the counts it leaves behind repeat exactly
  /// from run to run. Then flushes the subscriptions and matches deliveries
  /// to the updates they report.
  Samples Window(Stack* stack, const NotifyLog& notes, double seconds,
                 int64_t iterations, Tracer* tracer);
  /// Crashes every shard's WAL, reopens the root and compares every
  /// document with the mirror. Returns lost or diverged documents.
  Result<int64_t> CrashAndRecover(std::unique_ptr<Stack> stack,
                                  const std::string& wal_dir,
                                  double* recover_s);

 private:
  struct ChurnTrack {
    struct Sent {
      int32_t doc;
      int64_t revision;
      uint64_t at_ns;
      int32_t slice;
    };
    std::vector<int64_t> shard_revision;  // last store revision per shard
    std::vector<Sent> sent;               // acknowledged updates
  };

  void RecordAnswers(const std::vector<Pair>& pairs,
                     const std::vector<Result<Answer>>& answers,
                     Samples* samples);
  void ReadBatch(Stack* stack, Tracer* tracer, Samples* samples);
  /// One churn step: an edit, then its re-read. The re-read is a batch-1
  /// round trip: it is checked but kept out of the batch latency samples.
  void Step(Stack* stack, Tracer* tracer, Samples* samples, ChurnTrack* track);

  const Inputs& inputs_;
  Tally* tally_;
  AnswerChecker* checker_;
  Mirror* mirror_;
  const std::vector<std::vector<gkx::net::WireRequest>> wire_warmup_;
  const std::vector<std::vector<gkx::net::WireRequest>> wire_ring_;
  size_t ring_next_ = 0;
  int64_t churn_next_ = 0;
};

/// The window's calm slices: those in which the hypervisor stole no more
/// CPU time from the machine than in the window's median slice. The
/// end-to-end metrics are taken over these only: on a shared host steal
/// comes in bursts shorter than a slice, and a slice with a burst loses far
/// more throughput than the stolen share of its CPU time. With steal not
/// reported, every slice is calm.
std::vector<bool> CalmSlices(const Samples& samples);
/// Median over the `keep` slices of answers per second, and of CPU
/// microseconds per operation (answers + acknowledged updates).
double SliceAnswersPerSecond(const Samples& samples,
                             const std::vector<bool>& keep);
double SliceCpuUsPerOp(const Samples& samples, const std::vector<bool>& keep);

/// Metric name -> (value, unit), printed in insertion order.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void Add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

struct RunResult {
  std::vector<std::string> problems;  // empty when every check passed
  Tally tally;
  Metrics metrics;
};

struct RunOptions {
  Workload workload = Workload::kHotRead;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;
};

/// --trace 0: end-to-end metrics.
RunResult RunUntraced(const RunOptions& options, const Inputs& inputs);
/// --trace 1: per-layer metrics; writes spans.tsv and stats.json into
/// options.work_dir.
RunResult RunTraced(const RunOptions& options, const Inputs& inputs);

/// Checks shared by both runs once the window is over: answers against the
/// reference, the mirror's revision bookkeeping.
void VerifyAnswers(const Inputs& inputs, const Mirror& mirror,
                   const AnswerChecker& checker, gkx::ThreadPool* pool,
                   RunResult* result);

/// Empties and recreates a directory inside the work dir.
Status ResetDir(const std::string& path);

}  // namespace wirebench

#endif  // GKX_WIREBENCH_BENCH_HPP_
