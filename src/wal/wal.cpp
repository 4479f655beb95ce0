#include "wal/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "base/stopwatch.hpp"
#include "service/document_store.hpp"
#include "xml/snapshot.hpp"

namespace gkx::wal {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kManifestVersion = 1;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status Errno(const std::string& what) {
  return InternalError("wal: " + what + ": " + std::strerror(errno));
}

Status WriteAllFd(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Errno("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Errno("cannot read " + path);
  return out;
}

/// Best-effort directory fsync so renames/creates survive power loss.
void FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

struct ManifestEntry {
  int64_t revision = 0;
  std::string key;
  std::string file;
};

struct Manifest {
  uint64_t journal_offset = kJournalHeaderBytes;
  int64_t watermark = 0;
  uint64_t checkpoint_seq = 0;
  std::vector<ManifestEntry> entries;
};

void EncodeManifest(const Manifest& manifest, std::string* payload) {
  payload->clear();
  wire::Append(kManifestVersion, payload);
  wire::Append(manifest.journal_offset, payload);
  wire::Append(manifest.watermark, payload);
  wire::Append(manifest.checkpoint_seq, payload);
  wire::Append(static_cast<uint32_t>(manifest.entries.size()), payload);
  for (const ManifestEntry& entry : manifest.entries) {
    wire::Append(entry.revision, payload);
    wire::AppendString(entry.key, payload);
    wire::AppendString(entry.file, payload);
  }
}

Result<Manifest> DecodeManifest(std::string_view file_bytes,
                                const std::string& path) {
  auto corrupt = [&](const std::string& what) {
    return InvalidArgumentError("wal manifest " + path + ": " + what);
  };
  if (file_bytes.empty()) return corrupt("empty file");
  uint64_t offset = 0;
  auto payload = ReadFrame(file_bytes, &offset);
  if (!payload.ok()) return corrupt(payload.status().message());
  if (offset != file_bytes.size()) return corrupt("trailing bytes");
  wire::Reader reader(*payload);
  Manifest manifest;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!reader.Read(&version)) return corrupt("truncated");
  if (version != kManifestVersion) {
    return corrupt("version " + std::to_string(version) +
                   ", this build reads version " +
                   std::to_string(kManifestVersion));
  }
  if (!reader.Read(&manifest.journal_offset) ||
      !reader.Read(&manifest.watermark) ||
      !reader.Read(&manifest.checkpoint_seq) || !reader.Read(&count)) {
    return corrupt("truncated");
  }
  // Smallest entry: i64 revision + two empty strings.
  if (count > reader.remaining() / (8 + 4 + 4)) {
    return corrupt("entry count exceeds payload");
  }
  manifest.entries.resize(count);
  for (ManifestEntry& entry : manifest.entries) {
    if (!reader.Read(&entry.revision) || !reader.ReadString(&entry.key) ||
        !reader.ReadString(&entry.file)) {
      return corrupt("truncated entry");
    }
  }
  if (!reader.AtEnd()) return corrupt("trailing bytes after entries");
  if (manifest.journal_offset < kJournalHeaderBytes) {
    return corrupt("journal offset inside the header");
  }
  return manifest;
}

/// Atomic manifest install: temp sibling + fsync + rename + dir fsync.
Status WriteManifest(const std::string& path, const Manifest& manifest,
                     const std::string& dir) {
  std::string payload;
  EncodeManifest(manifest, &payload);
  std::string framed;
  AppendFrame(payload, &framed);
  const std::string temp_path = path + ".tmp";
  std::FILE* f = std::fopen(temp_path.c_str(), "wb");
  if (f == nullptr) return Errno("cannot create " + temp_path);
  bool ok = std::fwrite(framed.data(), 1, framed.size(), f) == framed.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(temp_path.c_str());
    return Errno("short write to " + temp_path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    return Errno("cannot rename into " + path);
  }
  FsyncDir(dir);
  return Status::Ok();
}

/// Removes snapshot generations the new manifest no longer references.
void DeleteStaleSnapshots(const std::string& dir, const Manifest& manifest) {
  std::vector<std::string> keep;
  keep.reserve(manifest.entries.size());
  for (const ManifestEntry& entry : manifest.entries) keep.push_back(entry.file);
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    const std::string name = dirent.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (std::find(keep.begin(), keep.end(), name) != keep.end()) continue;
    fs::remove(dirent.path(), ec);
  }
}

}  // namespace

Wal::Wal(WalOptions options, obs::MetricRegistry* registry)
    : options_(std::move(options)) {
  if (registry != nullptr) {
    append_hist_ = registry->GetHistogram("metrics.wal.append_ms");
    fsync_batch_hist_ = registry->GetHistogram("metrics.wal.fsync_batch_ms");
    checkpoint_hist_ = registry->GetHistogram("metrics.wal.checkpoint_ms");
    replay_hist_ = registry->GetHistogram("metrics.wal.replay_ms");
    records_counter_ = registry->GetCounter("metrics.wal.records");
    bytes_counter_ = registry->GetCounter("metrics.wal.bytes");
    torn_counter_ = registry->GetCounter("metrics.wal.torn_tail");
  }
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string Wal::JournalPath() const { return options_.dir + "/journal.log"; }
std::string Wal::ManifestPath() const { return options_.dir + "/MANIFEST"; }

Result<std::unique_ptr<Wal>> Wal::OpenAndRecover(
    const WalOptions& options, service::DocumentStore* store,
    RecoveryReport* report, obs::MetricRegistry* registry) {
  GKX_CHECK(store != nullptr && report != nullptr);
  GKX_CHECK(!options.dir.empty());
  *report = RecoveryReport{};
  std::unique_ptr<Wal> wal(new Wal(options, registry));
  GKX_RETURN_IF_ERROR(wal->Recover(store, report));
  wal->committer_ = std::thread([w = wal.get()] { w->CommitterLoop(); });
  return wal;
}

Status Wal::Recover(service::DocumentStore* store, RecoveryReport* report) {
  Stopwatch replay_sw;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("wal: cannot create directory " + options_.dir +
                         ": " + ec.message());
  }

  // --- manifest: restore the checkpointed snapshot set.
  Manifest manifest;
  bool have_manifest = fs::exists(ManifestPath(), ec) && !ec;
  // Per-key revision floor for replay idempotence: a suffix record whose
  // revision a snapshot already covers must be skipped, one that postdates
  // the snapshot must apply. Keys absent here always apply (their full
  // record history from the manifest offset on is in the suffix).
  std::map<std::string, int64_t> applied;
  if (have_manifest) {
    std::string manifest_bytes;
    GKX_ASSIGN_OR_RETURN(manifest_bytes, ReadFileToString(ManifestPath()));
    GKX_ASSIGN_OR_RETURN(manifest,
                         DecodeManifest(manifest_bytes, ManifestPath()));
    for (const ManifestEntry& entry : manifest.entries) {
      xml::Document doc;
      GKX_ASSIGN_OR_RETURN(doc,
                           xml::MapSnapshot(options_.dir + "/" + entry.file));
      store->RecoverPut(entry.key, std::move(doc), entry.revision);
      applied[entry.key] = entry.revision;
      ++report->snapshots_loaded;
    }
    store->RestoreRevisionFloor(manifest.watermark);
    checkpoint_seq_ = manifest.checkpoint_seq;
  }

  // --- journal: replay the suffix, stopping at the first bad frame.
  const std::string journal_path = JournalPath();
  int64_t max_revision = have_manifest ? manifest.watermark : 0;
  if (fs::exists(journal_path, ec) && !ec) {
    std::string data;
    GKX_ASSIGN_OR_RETURN(data, ReadFileToString(journal_path));
    uint64_t offset = data.size();
    if (data.size() >= kJournalHeaderBytes) {
      GKX_ASSIGN_OR_RETURN(offset, CheckJournalHeader(data));
      if (have_manifest) offset = manifest.journal_offset;
    } else if (!data.empty()) {
      // A crash between journal creation and the header write leaves a
      // short file; no record can precede a complete header, so there is
      // nothing to replay — but it still counts as a torn tail.
      report->torn_tail_bytes = static_cast<int64_t>(data.size());
      report->torn_tail_reason = "journal truncated inside the file header";
      if (torn_counter_ != nullptr) torn_counter_->Add();
    }
    // The manifest offset may point past the file end: records enqueued
    // after the offset capture need not have reached the disk before the
    // crash — the snapshots already cover everything below the watermark.
    while (offset < data.size()) {
      const uint64_t frame_start = offset;
      auto payload = ReadFrame(data, &offset);
      if (!payload.ok()) {
        // Torn tail: a crash mid-append (or corruption). Nothing at or
        // past this offset is applied — CRC validation precedes decoding.
        report->torn_tail_bytes =
            static_cast<int64_t>(data.size() - frame_start);
        report->torn_tail_reason = payload.status().message();
        if (torn_counter_ != nullptr) torn_counter_->Add();
        break;
      }
      Record record;
      GKX_ASSIGN_OR_RETURN(record, DecodePayload(*payload));
      auto it = applied.find(record.key);
      if (it != applied.end() && record.revision <= it->second) {
        ++report->records_skipped;
        continue;
      }
      switch (record.op) {
        case Op::kPut:
          store->RecoverPut(record.key, std::move(record.doc),
                            record.revision);
          break;
        case Op::kUpdate:
          GKX_RETURN_IF_ERROR(
              store->RecoverUpdate(record.key, record.edit, record.revision));
          break;
        case Op::kRemove:
          store->RecoverRemove(record.key);
          break;
      }
      applied[record.key] = record.revision;
      if (record.revision > max_revision) max_revision = record.revision;
      ++report->records_replayed;
    }
  }
  store->RestoreRevisionFloor(max_revision);
  report->revision_watermark = store->last_revision();

  // --- normalize: checkpoint the recovered state and reset the journal.
  // Order matters for crash-consistency: the new manifest (journal offset =
  // header end) lands atomically BEFORE the truncate; if we die in between,
  // the next recovery replays the old records against the new snapshots and
  // the per-key revision floors skip every one of them.
  fd_ = ::open(journal_path.c_str(), O_CREAT | O_WRONLY, 0644);
  if (fd_ < 0) return Errno("cannot open " + journal_path);
  std::string header;
  AppendJournalHeader(&header);
  if (::pwrite(fd_, header.data(), header.size(), 0) !=
      static_cast<ssize_t>(header.size())) {
    return Errno("cannot write header to " + journal_path);
  }
  enqueued_offset_ = kJournalHeaderBytes;
  checkpoint_offset_ = kJournalHeaderBytes;
  GKX_RETURN_IF_ERROR(Checkpoint(*store));
  if (::ftruncate(fd_, static_cast<off_t>(kJournalHeaderBytes)) != 0) {
    return Errno("cannot truncate " + journal_path);
  }
  if (options_.fsync && ::fsync(fd_) != 0) {
    return Errno("cannot fsync " + journal_path);
  }
  if (::lseek(fd_, static_cast<off_t>(kJournalHeaderBytes), SEEK_SET) < 0) {
    return Errno("cannot seek " + journal_path);
  }
  if (replay_hist_ != nullptr) replay_hist_->Record(replay_sw.ElapsedSeconds());
  return Status::Ok();
}

Wal::PendingRecord Wal::MakePut(std::string_view key,
                                const xml::Document& doc) {
  Record record;
  record.op = Op::kPut;
  record.key = std::string(key);
  record.doc = doc;  // deep copy; encoded immediately below
  PendingRecord pending;
  EncodePayload(record, &pending.payload);
  return pending;
}

Wal::PendingRecord Wal::MakeUpdate(std::string_view key,
                                   const xml::SubtreeEdit& edit) {
  Record record;
  record.op = Op::kUpdate;
  record.key = std::string(key);
  record.edit.kind = edit.kind;
  record.edit.target = edit.target;
  record.edit.position = edit.position;
  record.edit.subtree = edit.subtree;
  record.edit.text = edit.text;
  record.edit.label = edit.label;
  PendingRecord pending;
  EncodePayload(record, &pending.payload);
  return pending;
}

Wal::PendingRecord Wal::MakeRemove(std::string_view key) {
  Record record;
  record.op = Op::kRemove;
  record.key = std::string(key);
  PendingRecord pending;
  EncodePayload(record, &pending.payload);
  return pending;
}

Wal::Ticket Wal::Enqueue(PendingRecord record, int64_t revision) {
  StampRevision(&record.payload, revision);
  const int64_t frame_bytes =
      static_cast<int64_t>(kFrameHeaderBytes + record.payload.size());
  Ticket ticket;
  ticket.enqueue_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    GKX_CHECK(!stop_);
    AppendFrame(record.payload, &buffer_);
    enqueued_offset_ += static_cast<uint64_t>(frame_bytes);
    ticket.seq = ++enqueued_seq_;
  }
  if (records_counter_ != nullptr) records_counter_->Add();
  if (bytes_counter_ != nullptr) bytes_counter_->Add(frame_bytes);
  work_cv_.notify_one();
  return ticket;
}

Status Wal::WaitDurable(const Ticket& ticket) {
  Status status;
  {
    std::unique_lock<std::mutex> lock(mu_);
    durable_cv_.wait(lock, [&] {
      return durable_seq_ >= ticket.seq || !io_status_.ok() || crashed_;
    });
    if (!io_status_.ok()) {
      status = io_status_;
    } else if (durable_seq_ < ticket.seq) {
      status = InternalError("wal: crashed before this record committed");
    }
  }
  if (append_hist_ != nullptr) {
    append_hist_->Record(static_cast<double>(NowNs() - ticket.enqueue_ns) *
                         1e-9);
  }
  return status;
}

void Wal::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !buffer_.empty(); });
    if (buffer_.empty()) return;  // stop requested and everything flushed
    // Everything pending is one batch: under concurrent writers, the
    // records that queued while the previous write + fdatasync ran.
    std::string batch;
    batch.swap(buffer_);
    const int64_t batch_seq = enqueued_seq_;
    lock.unlock();
    Stopwatch sw;
    Status status = WriteAllFd(fd_, batch);
    if (status.ok() && options_.fsync && ::fdatasync(fd_) != 0) {
      status = Errno("fdatasync");
    }
    if (fsync_batch_hist_ != nullptr) {
      fsync_batch_hist_->Record(sw.ElapsedSeconds());
    }
    lock.lock();
    if (!status.ok() && io_status_.ok()) io_status_ = status;
    durable_seq_ = batch_seq;
    durable_cv_.notify_all();
  }
}

Status Wal::Checkpoint(const service::DocumentStore& store) {
  std::lock_guard<std::mutex> serialize(checkpoint_mu_);
  Stopwatch sw;
  Manifest manifest;
  {
    // Capture the logical journal end BEFORE reading any document: records
    // racing past this point may land in both a snapshot and the replayed
    // suffix, which the per-key revision floors make idempotent. (Released
    // before touching the store — Enqueue runs under the store lock and
    // takes mu_, so holding mu_ across store reads would invert that
    // order.)
    std::lock_guard<std::mutex> lock(mu_);
    manifest.journal_offset = enqueued_offset_;
  }
  manifest.checkpoint_seq = ++checkpoint_seq_;
  int index = 0;
  for (const std::string& key : store.Keys()) {
    auto stored = store.Get(key);
    if (stored == nullptr) continue;  // raced a Remove; the journal has it
    ManifestEntry entry;
    entry.revision = stored->revision();
    entry.key = key;
    entry.file = "snap-" + std::to_string(manifest.checkpoint_seq) + "-" +
                 std::to_string(index++) + ".arena";
    GKX_RETURN_IF_ERROR(
        xml::SaveSnapshot(stored->doc(), options_.dir + "/" + entry.file));
    manifest.entries.push_back(std::move(entry));
  }
  // Captured AFTER the reads: the watermark dominates every snapshot
  // revision, so recovery's revision floor can never hand out a revision
  // some pre-crash observer already saw.
  manifest.watermark = store.last_revision();
  GKX_RETURN_IF_ERROR(WriteManifest(ManifestPath(), manifest, options_.dir));
  {
    std::lock_guard<std::mutex> lock(mu_);
    checkpoint_offset_ = manifest.journal_offset;
  }
  DeleteStaleSnapshots(options_.dir, manifest);
  if (checkpoint_hist_ != nullptr) checkpoint_hist_->Record(sw.ElapsedSeconds());
  return Status::Ok();
}

int64_t Wal::BytesSinceCheckpoint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(enqueued_offset_ - checkpoint_offset_);
}

void Wal::SimulateCrash() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_ = true;
    stop_ = true;
    buffer_.clear();  // the un-flushed batch dies with the "process"
  }
  work_cv_.notify_all();
  durable_cv_.notify_all();
  if (committer_.joinable()) committer_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace gkx::wal
