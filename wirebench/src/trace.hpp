// The traced run's instrument: spans around calls into each layer's public
// entry points, taken from outside the library. Every wire request is
// replayed on two in-process twins that receive the identical request
// sequence, so their cache state matches the wire stack's:
//
//   twin A  a durable router (WAL on, own root) called as a router;
//   twin B  an in-memory router whose shards are called directly.
//
// Layer times are differences between those calls: wire minus twin A is
// transport, twin A minus the slowest twin-B shard is the router's scatter
// and stitch, twin A's update minus twin B's is the WAL.

#ifndef GKX_WIREBENCH_TRACE_HPP_
#define GKX_WIREBENCH_TRACE_HPP_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace wirebench {

struct Span {
  int32_t name = 0;     // index into SpanLog::names
  int32_t parent = -1;  // span index, -1 for a root
  int64_t request = 0;  // wire request id (census: pair index)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool parallel = false;  // overlaps its siblings (shard fan-out)
};

class SpanLog {
 public:
  int32_t Add(const std::string& name, int32_t parent, int64_t request,
              uint64_t start_ns, uint64_t end_ns, bool parallel = false);
  /// Self time per layer name, summed over the trees of every root named
  /// `root`: a span's duration minus what its children cover (sequential
  /// children add; of parallel ones only the longest counts, and only it
  /// enters the budget), never below zero. Also returns the summed root
  /// durations; the residual is their difference from the summed self
  /// times, nonzero where twin calls outlast the span they stand under.
  std::map<std::string, double> SelfTimesUs(const std::string& root,
                                            double* root_total_us) const;
  Status WriteTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int32_t> ids_;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  using Answer = gkx::eval::Engine::Answer;

  Tracer(const Inputs& inputs, gkx::ThreadPool* pool);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Status Open(const std::string& twin_wal_dir);
  Router* twin_a() { return twin_a_->router.get(); }
  Router* twin_b() { return twin_b_->router.get(); }

  /// read + write syscalls of the whole process so far (the sample itself
  /// is one pread; SyscallsBetween subtracts it).
  int64_t SyscallCount() const;
  int64_t SyscallsBetween(int64_t before, int64_t after) const {
    return after - before - sample_cost_;
  }

  void OnRegister(int32_t doc);
  void OnWarmup(const std::vector<Pair>& batch);
  void OnRead(const std::vector<Pair>& pairs,
              const std::vector<Result<Answer>>& wire, bool single,
              uint64_t t0, uint64_t t1, int64_t syscalls);
  void OnUpdate(int32_t doc, const gkx::xml::SubtreeEdit& edit, bool acked,
                uint64_t t0, uint64_t t1, int64_t syscalls,
                uint64_t apply_edit_ns);

  /// Begins counting layer figures (everything before is set-up).
  void StartWindow() { counting_ = true; }
  /// Twin answers that disagreed with the wire answer.
  int64_t twin_mismatches() const { return twin_mismatches_; }

  /// Appends the layer metrics this tracer measured.
  void Report(Metrics* metrics) const;
  /// Self-time table and residual per wire request, printed and added.
  void ReportBudget(Metrics* metrics) const;
  /// Compiles the query pool, then times every census pair on fresh
  /// engines (the index fast path where it applies), grouped by route.
  void RunCensus(Metrics* metrics);
  Status WriteSpans(const std::string& path) const {
    return spans_.WriteTsv(path);
  }

 private:
  std::vector<std::vector<gkx::service::QueryService::Request>> SplitByShard(
      const std::vector<Pair>& pairs) const;

  const Inputs& inputs_;
  gkx::ThreadPool* pool_;
  std::unique_ptr<Stack> twin_a_;
  std::unique_ptr<Stack> twin_b_;
  int io_fd_ = -1;
  int64_t sample_cost_ = 0;
  bool counting_ = false;
  int64_t next_request_ = 0;
  SpanLog spans_;

  // Window accumulators.
  int64_t wire_requests_ = 0;
  int64_t read_requests_ = 0;  // wire read round trips
  int64_t answers_ = 0;
  int64_t syscalls_ = 0;
  int64_t payload_bytes_ = 0;
  double codec_us_ = 0;
  double transport_us_ = 0;     // reads: wire - twin A
  double scatter_us_ = 0;       // reads: twin A - slowest twin-B shard
  double shard_us_ = 0;         // reads: sum of twin-B shard calls
  double skew_sum_ = 0;
  int64_t skew_batches_ = 0;
  int64_t updates_ = 0;
  double wal_us_ = 0;           // twin A update - twin B update
  double store_update_us_ = 0;  // twin B update
  double apply_edit_us_ = 0;
  std::vector<uint64_t> update_ns_;  // wire update round trips
  int64_t twin_mismatches_ = 0;
  // Ingest of twin B.
  int64_t ingest_bytes_ = 0;
  double ingest_s_ = 0;
};

}  // namespace wirebench

#endif  // GKX_WIREBENCH_TRACE_HPP_
