// Durable delta write-ahead log with snapshot checkpoints — ROADMAP item 2.
//
// Layout of a WAL directory:
//   journal.log            append-only record frames (wal/record.hpp)
//   MANIFEST               last checkpoint: snapshot set + journal offset +
//                          revision watermark, one CRC frame, written
//                          atomically (temp + rename, like snapshots)
//   snap-<seq>-<i>.arena   per-document xml::SaveSnapshot files named by
//                          the manifest; stale generations are deleted
//                          after the manifest rename
//
// Write path (group commit): DocumentStore encodes the record body OUTSIDE
// its install lock (MakePut/MakeUpdate/MakeRemove), then — under the lock,
// at the moment the revision is assigned — Enqueue() stamps the revision
// and appends the frame to an in-memory commit buffer. Journal order is
// therefore exactly revision order. A dedicated committer thread wakes on
// the first pending record and at once write()s + fdatasync()s everything
// pending, then advances the durable sequence; WaitDurable(ticket) blocks
// the mutating caller (outside the store lock) until its record's batch is
// durable. There is no timed batching window: the records that arrive
// while one write + fdatasync runs form the next batch, so a lone writer
// pays one fsync per record and concurrent writers share one — the
// amortization that keeps durable update throughput within reach of the
// in-memory rate (bench_wal self-checks >= 0.5x).
//
// Checkpoint: capture the journal's logical offset FIRST, then snapshot
// every document and write the manifest. Records enqueued between the
// offset capture and the document reads may be reflected in both a
// snapshot and the replayed suffix; replay skips any record whose revision
// is <= the per-key snapshot revision, so the double-coverage is harmless
// (replay idempotence, tested).
//
// Recovery (OpenAndRecover): read MANIFEST if present -> MapSnapshot each
// document into the store with its pinned revision -> replay the journal
// suffix from the manifest offset through the store's Recover* paths ->
// stop at the first bad frame (short header, implausible size, CRC
// mismatch), truncate that torn tail, and count it in
// metrics.wal.torn_tail. The recovery invariant — snapshot + replayed
// suffix reproduces an ExhaustiveEquals-identical corpus containing exactly
// the acked mutations — is what testkit::RunSoak (with a wal_dir) and
// wal_recovery_test re-prove under kill/checkpoint/reopen rounds. Recovery
// always ends by writing a fresh checkpoint of the recovered state and
// resetting the journal to empty, so a recovered directory is
// indistinguishable from a freshly checkpointed one (and repeated crashes
// cannot grow the journal without bound).

#ifndef GKX_WAL_WAL_HPP_
#define GKX_WAL_WAL_HPP_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "base/status.hpp"
#include "obs/metrics.hpp"
#include "wal/record.hpp"
#include "xml/document.hpp"
#include "xml/edit.hpp"

namespace gkx::service {
class DocumentStore;
}

namespace gkx::wal {

struct WalOptions {
  /// Directory holding journal + manifest + snapshots; created if missing.
  std::string dir;
  /// fdatasync every batch. Turning this off keeps the journal bytes
  /// correct but loses the durability guarantee — only for tests/benches
  /// isolating the fsync cost.
  bool fsync = true;
  /// QueryService auto-checkpoints when the journal grows this many bytes
  /// past the last checkpoint; 0 = manual checkpoints only.
  int64_t checkpoint_every_bytes = 64 << 20;
};

/// What recovery found and did; exposed via QueryService::wal_recovery().
struct RecoveryReport {
  int64_t snapshots_loaded = 0;   // documents restored from the manifest
  int64_t records_replayed = 0;   // journal suffix records applied
  int64_t records_skipped = 0;    // suffix records a snapshot already covered
  int64_t torn_tail_bytes = 0;    // bytes truncated at the first bad frame
  std::string torn_tail_reason;   // empty when the journal ended cleanly
  int64_t revision_watermark = 0; // store revision floor after recovery
  bool torn() const { return !torn_tail_reason.empty(); }
};

class Wal {
 public:
  /// A fully encoded record body awaiting its revision stamp. Built outside
  /// any lock; Enqueue consumes it.
  struct PendingRecord {
    std::string payload;
  };

  /// Names one enqueued record; WaitDurable blocks on it.
  struct Ticket {
    int64_t seq = 0;
    uint64_t enqueue_ns = 0;
  };

  /// Opens (creating if needed) the WAL at `options.dir`, recovers its
  /// state into `store`, writes a post-recovery checkpoint, and starts the
  /// committer. `registry` (optional) receives the metrics.wal.* family,
  /// named by their paths in the stats document (service/stats.hpp). On
  /// error the store may hold a partial corpus and must be discarded.
  static Result<std::unique_ptr<Wal>> OpenAndRecover(
      const WalOptions& options, service::DocumentStore* store,
      RecoveryReport* report, obs::MetricRegistry* registry = nullptr);

  /// Flushes any pending batch (acked records are already durable) and
  /// stops the committer.
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Record builders — the expensive body encoding, done outside the store
  // lock. The revision field is a placeholder until Enqueue stamps it.
  static PendingRecord MakePut(std::string_view key, const xml::Document& doc);
  static PendingRecord MakeUpdate(std::string_view key,
                                  const xml::SubtreeEdit& edit);
  static PendingRecord MakeRemove(std::string_view key);

  /// Stamps `revision` into the record and appends its frame to the commit
  /// buffer. Called by DocumentStore UNDER its install lock, immediately
  /// after assigning the revision — that is the mechanism that makes
  /// journal order identical to revision order. Cheap: one CRC pass + one
  /// buffer append.
  Ticket Enqueue(PendingRecord record, int64_t revision);

  /// Blocks until the batch containing `ticket` is durable (or the journal
  /// hit a sticky I/O error, returned here and to all later callers).
  Status WaitDurable(const Ticket& ticket);

  /// Snapshots every document of `store` and atomically installs a new
  /// manifest. Serialized internally; safe to call concurrently with
  /// mutations (snapshots read immutable shared_ptr documents).
  Status Checkpoint(const service::DocumentStore& store);

  /// Journal bytes enqueued since the last checkpoint — the auto-checkpoint
  /// trigger input.
  int64_t BytesSinceCheckpoint() const;

  const WalOptions& options() const { return options_; }

  /// Test hook simulating a process kill: drops any batch the committer
  /// has not yet picked up and stops without the destructor's final flush.
  /// Records whose WaitDurable returned OK are on disk regardless — that
  /// is the guarantee under test.
  void SimulateCrash();

 private:
  Wal(WalOptions options, obs::MetricRegistry* registry);

  Status Recover(service::DocumentStore* store, RecoveryReport* report);
  void CommitterLoop();

  std::string JournalPath() const;
  std::string ManifestPath() const;

  const WalOptions options_;

  // metrics.wal.* — registered under their stats-document paths; null-safe
  // when no registry was supplied.
  obs::Histogram* append_hist_ = nullptr;      // append_ms
  obs::Histogram* fsync_batch_hist_ = nullptr; // fsync_batch_ms
  obs::Histogram* checkpoint_hist_ = nullptr;  // checkpoint_ms
  obs::Histogram* replay_hist_ = nullptr;      // replay_ms
  obs::Counter* records_counter_ = nullptr;    // records
  obs::Counter* bytes_counter_ = nullptr;      // bytes
  obs::Counter* torn_counter_ = nullptr;       // torn_tail

  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // committer wake-up
  std::condition_variable durable_cv_;  // waiter wake-up
  std::string buffer_;                  // frames awaiting the committer
  int64_t enqueued_seq_ = 0;
  int64_t durable_seq_ = 0;
  uint64_t enqueued_offset_ = kJournalHeaderBytes;   // logical journal end
  uint64_t checkpoint_offset_ = kJournalHeaderBytes; // offset in last manifest
  Status io_status_;  // sticky first write/fsync failure
  bool stop_ = false;
  bool crashed_ = false;

  /// Serializes checkpoints; also guards checkpoint_seq_.
  std::mutex checkpoint_mu_;
  uint64_t checkpoint_seq_ = 0;

  std::thread committer_;
};

}  // namespace gkx::wal

#endif  // GKX_WAL_WAL_HPP_
