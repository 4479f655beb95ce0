#include "service/document_store.hpp"

#include <algorithm>
#include <utility>

#include "base/stopwatch.hpp"
#include "wal/wal.hpp"
#include "xml/parser.hpp"
#include "xml/snapshot.hpp"

namespace gkx::service {

StoredDocument::StoredDocument(xml::Document doc, int64_t revision)
    : doc_(std::move(doc)), revision_(revision) {}

const xml::DocumentIndex& StoredDocument::index() const {
  const xml::DocumentIndex* built =
      index_ptr_.load(std::memory_order_acquire);
  if (built != nullptr) return *built;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (index_ == nullptr) {
    index_ = std::make_unique<xml::DocumentIndex>(doc_);
  }
  index_ptr_.store(index_.get(), std::memory_order_release);
  return *index_;
}

bool StoredDocument::index_built() const {
  return index_ptr_.load(std::memory_order_acquire) != nullptr;
}

std::vector<std::string> DocumentStore::UnionNameSets(
    const StoredDocument& before, const StoredDocument& after) {
  std::vector<std::string> out = before.doc().InternedNames();
  const std::vector<std::string>& added = after.doc().InternedNames();
  out.insert(out.end(), added.begin(), added.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Status DocumentStore::Put(std::string key, xml::Document doc) {
  if (doc.empty()) {
    return InvalidArgumentError("cannot register empty document under key '" +
                                key + "'");
  }
  return Install(std::move(key),
                 std::make_shared<StoredDocument>(std::move(doc)));
}

Status DocumentStore::Install(std::string key,
                              std::shared_ptr<StoredDocument> stored) {
  // The expensive WAL record encoding (a whole-document snapshot) happens
  // before the lock; only the revision stamp + buffer append go inside.
  wal::Wal::PendingRecord record;
  if (wal_ != nullptr) record = wal::Wal::MakePut(key, stored->doc());
  std::shared_ptr<const StoredDocument> old;
  wal::Wal::Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stored->revision_ = ++last_revision_;
    if (wal_ != nullptr) {
      ticket = wal_->Enqueue(std::move(record), stored->revision_);
    }
    auto& slot = docs_[key];
    old = std::move(slot);
    slot = stored;
  }
  if (wal_ != nullptr) GKX_RETURN_IF_ERROR(wal_->WaitDurable(ticket));
  if (listener_) {
    CorpusUpdate update;
    update.key = std::move(key);
    update.old_doc = std::move(old);
    update.new_doc = std::move(stored);
    if (update.replacement()) {
      update.changed_names = UnionNameSets(*update.old_doc, *update.new_doc);
    }
    listener_(update);
  }
  return Status::Ok();
}

Status DocumentStore::PutXml(std::string key, std::string_view xml) {
  auto doc = xml::ParseDocument(xml);
  if (!doc.ok()) return doc.status();
  return Put(std::move(key), std::move(doc).value());
}

Status DocumentStore::PutSnapshot(std::string key, const std::string& path) {
  auto doc = xml::MapSnapshot(path);
  if (!doc.ok()) return doc.status();
  if (doc->empty()) {
    return InvalidArgumentError("cannot register empty snapshot under key '" +
                                key + "'");
  }
  return Put(std::move(key), std::move(doc).value());
}

Status DocumentStore::Update(std::string_view key,
                             const xml::SubtreeEdit& edit) {
  // Encoded once, outside the retry loop and every lock: the edit is the
  // caller's constant, so a retried splice reuses the same record body. It
  // is enqueued only when this attempt wins the install race — an
  // abandoned attempt must leave no journal trace.
  wal::Wal::PendingRecord record;
  if (wal_ != nullptr) record = wal::Wal::MakeUpdate(key, edit);
  for (;;) {
    std::shared_ptr<const StoredDocument> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = docs_.find(key);
      if (it == docs_.end()) {
        return InvalidArgumentError("cannot update unknown document key '" +
                             std::string(key) + "'");
      }
      old = it->second;
    }

    // The O(|D|) splice happens against the snapshot, outside the mutex.
    xml::DocumentDelta delta;
    Stopwatch splice_sw;
    auto edited = xml::ApplyEdit(old->doc(), edit, &delta);
    const double splice_seconds = splice_sw.ElapsedSeconds();
    if (!edited.ok()) return edited.status();
    auto stored = std::make_shared<StoredDocument>(std::move(edited).value());

    wal::Wal::Ticket ticket;
    bool logged = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = docs_.find(key);
      if (it == docs_.end() || it->second != old) {
        // A racing Put/Remove/Update changed the base revision under us:
        // the splice is stale, redo it against the current state. (No
        // revision was drawn for the abandoned attempt — ids are assigned
        // only at install, so monotonicity holds trivially.)
        continue;
      }
      stored->revision_ = ++last_revision_;
      if (wal_ != nullptr) {
        ticket = wal_->Enqueue(std::move(record), stored->revision_);
        logged = true;
      }
      it->second = stored;
    }
    if (logged) GKX_RETURN_IF_ERROR(wal_->WaitDurable(ticket));

    if (listener_) {
      CorpusUpdate update;
      update.key = std::string(key);
      update.old_doc = std::move(old);
      update.new_doc = std::move(stored);
      update.splice_seconds = splice_seconds;
      if (report_deltas_) {
        update.delta = &delta;
        update.changed_names = delta.ChangedNames();
      } else {
        // Baseline reporting: pretend this was a whole-document Put.
        update.changed_names =
            UnionNameSets(*update.old_doc, *update.new_doc);
      }
      listener_(update);
    }
    return Status::Ok();
  }
}

std::shared_ptr<const StoredDocument> DocumentStore::Get(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(key);
  return it == docs_.end() ? nullptr : it->second;
}

bool DocumentStore::Remove(std::string_view key) {
  wal::Wal::PendingRecord record;
  if (wal_ != nullptr) record = wal::Wal::MakeRemove(key);
  std::shared_ptr<const StoredDocument> old;
  wal::Wal::Ticket ticket;
  bool logged = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = docs_.find(key);
    if (it == docs_.end()) return false;
    old = std::move(it->second);
    docs_.erase(it);
    if (wal_ != nullptr) {
      // Removal burns a revision so its journal record is totally ordered
      // against Put/Update records for the same key at replay time.
      ticket = wal_->Enqueue(std::move(record), ++last_revision_);
      logged = true;
    }
  }
  if (logged) {
    // The bool signature has no error channel; a durability failure is
    // sticky in the WAL and surfaces on the next Status-returning mutation
    // (and via QueryService::wal_status-style probes).
    (void)wal_->WaitDurable(ticket);
  }
  if (listener_) {
    CorpusUpdate update;
    update.key = std::string(key);
    update.old_doc = std::move(old);
    listener_(update);
  }
  return true;
}

int64_t DocumentStore::last_revision() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_revision_;
}

void DocumentStore::RecoverPut(std::string key, xml::Document doc,
                               int64_t revision) {
  auto stored = std::make_shared<const StoredDocument>(std::move(doc), revision);
  std::lock_guard<std::mutex> lock(mu_);
  if (revision > last_revision_) last_revision_ = revision;
  docs_[std::move(key)] = std::move(stored);
}

Status DocumentStore::RecoverUpdate(std::string_view key,
                                    const xml::SubtreeEdit& edit,
                                    int64_t revision) {
  // Replay is single-threaded and pre-traffic: no install race to guard.
  std::shared_ptr<const StoredDocument> old = Get(key);
  if (old == nullptr) {
    return InvalidArgumentError(
        "wal replay: update record for unknown document key '" +
        std::string(key) + "'");
  }
  auto edited = xml::ApplyEdit(old->doc(), edit);
  if (!edited.ok()) {
    return InternalError("wal replay: edit for key '" + std::string(key) +
                         "' no longer applies: " + edited.status().message());
  }
  RecoverPut(std::string(key), std::move(edited).value(), revision);
  return Status::Ok();
}

bool DocumentStore::RecoverRemove(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(key);
  if (it == docs_.end()) return false;
  docs_.erase(it);
  return true;
}

void DocumentStore::RestoreRevisionFloor(int64_t floor) {
  std::lock_guard<std::mutex> lock(mu_);
  if (floor > last_revision_) last_revision_ = floor;
}

std::vector<std::string> DocumentStore::Keys() const {
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keys.reserve(docs_.size());
    for (const auto& [key, stored] : docs_) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

size_t DocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

}  // namespace gkx::service
