// The corpus half of the query service: named, long-lived documents.
// Registration parses (or accepts) an xml::Document once; every Submit
// against the same key reuses it. Each stored document lazily grows a
// DocumentIndex side-structure (built on first use, at most once) so the
// Document itself stays exactly the immutable preorder tree the evaluators
// already know.
//
// Mutation paths: Put/PutXml replace a key wholesale; Update(key, edit)
// applies a subtree patch (xml/edit.hpp) to the current revision — one
// O(|D|) splice instead of parse + rebuild. The edited revision starts
// without an index, like every other revision, and builds it on its first
// indexed query. Update is optimistic: the edit is applied outside the
// store mutex against a snapshot and installed only if the key still holds
// that snapshot (a racing Put/Remove/Update forces a retry), so readers are
// never blocked behind an O(|D|) splice.
//
// Revisions: every Put/Update stamps the stored document with a revision id
// drawn from one store-wide monotonic counter. Revisions are never reused —
// not across replacements of a key and not across Remove + re-Put — so an
// equality check against a StoredDocument::revision() can never confuse two
// distinct document states (no ABA). The mview answer cache keys cached
// answers by exactly this id.
//
// Update listener: an optional hook observing every corpus mutation as a
// CorpusUpdate (install, replace, subtree update, remove), invoked *after*
// the store reflects the change and outside the store mutex (so a listener
// may call back into the store). Because it runs outside the lock, two
// racing mutations of the same key may invoke their listeners out of
// order; listeners must key any derived state on the revision ids, which
// totally order the transitions. This is the churn signal the mview layer
// (answer-cache invalidation, standing-query re-evaluation) hangs off. The
// CorpusUpdate carries the changed-name set: for subtree updates the
// delta's region-local names, for whole-document replacement the union of
// the two revisions' intern pools (a superset of the present names, which
// only over-invalidates); and, for subtree updates, the DocumentDelta
// itself, which is what upgrades invalidation from document×name to
// region×name precision.
//
// Thread safety: the store is fully thread-safe. Get() hands out
// shared_ptrs, so removing or replacing a key never invalidates documents
// that in-flight requests are still evaluating against.

#ifndef GKX_SERVICE_DOCUMENT_STORE_HPP_
#define GKX_SERVICE_DOCUMENT_STORE_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.hpp"
#include "base/string_util.hpp"
#include "xml/document.hpp"
#include "xml/edit.hpp"
#include "xml/index.hpp"

namespace gkx::wal {
class Wal;
}

namespace gkx::service {

/// A registered document plus its lazily-built index and store revision.
class StoredDocument {
 public:
  explicit StoredDocument(xml::Document doc, int64_t revision = 0);

  const xml::Document& doc() const { return doc_; }

  /// Store-wide monotonic revision id assigned at Put/Update time (0 for
  /// documents constructed outside a store, e.g. in tests).
  int64_t revision() const { return revision_; }

  /// The acceleration index; built on first call (thread-safe, at most
  /// once).
  const xml::DocumentIndex& index() const;

  /// True once index() has been called.
  bool index_built() const;

 private:
  friend class DocumentStore;

  xml::Document doc_;
  int64_t revision_ = 0;
  mutable std::mutex index_mu_;
  mutable std::unique_ptr<xml::DocumentIndex> index_;
  mutable std::atomic<const xml::DocumentIndex*> index_ptr_{nullptr};
};

/// One corpus mutation, as seen by the update listener. `old_doc` is null
/// on a fresh install, `new_doc` is null on removal; both are non-null on
/// replacement and subtree update.
struct CorpusUpdate {
  std::string key;
  std::shared_ptr<const StoredDocument> old_doc;
  std::shared_ptr<const StoredDocument> new_doc;
  /// The subtree delta for Update(); null for whole-document mutations
  /// (Put/Remove — the degenerate "everything may have changed" delta).
  /// Points into the notifying call's frame: valid only during the
  /// callback.
  const xml::DocumentDelta* delta = nullptr;
  /// Sorted, duplicate-free changed-name set: delta-local names for a
  /// subtree update, the union of the two revisions' intern pools for a
  /// whole-document replacement, empty for install/removal (which listeners
  /// must treat as all-changed).
  std::vector<std::string> changed_names;
  /// Wall-clock of the subtree splice (ApplyEdit), for Update() mutations;
  /// 0.0 for whole-document mutations. Reported even in the
  /// set_report_deltas(false) baseline — the work happened either way.
  double splice_seconds = 0.0;

  bool replacement() const {
    return old_doc != nullptr && new_doc != nullptr;
  }
};

class DocumentStore {
 public:
  /// Observes corpus mutations. Called outside the store mutex, after the
  /// store reflects the change.
  using UpdateListener = std::function<void(const CorpusUpdate&)>;

  /// Installs the mutation observer. Not thread-safe against concurrent
  /// mutations — set it once, before traffic (the QueryService does this in
  /// its constructor).
  void SetUpdateListener(UpdateListener listener) {
    listener_ = std::move(listener);
  }

  /// Baseline switch for experiments: when false, Update() still applies
  /// the subtree patch but REPORTS it as a whole-document replacement —
  /// null delta, whole-document changed-name union — so downstream
  /// invalidation degrades to the document×name precision a whole-document
  /// Put would get. Set once, before traffic.
  void set_report_deltas(bool report) { report_deltas_ = report; }

  /// Registers (or replaces) a document under `key`. Empty documents are
  /// rejected: they have no root context to evaluate in.
  Status Put(std::string key, xml::Document doc);

  /// Parses `xml` and registers the result under `key`.
  Status PutXml(std::string key, std::string_view xml);

  /// Memory-maps the arena snapshot at `path` (xml/snapshot.hpp) and
  /// registers the mapped document under `key`. The document serves queries
  /// straight out of the mapping — no parse, no copy, page-fault-bound cold
  /// start.
  Status PutSnapshot(std::string key, const std::string& path);

  /// Applies a subtree edit to the current revision of `key` (see the
  /// header comment). Fails if the key is absent or the edit is invalid
  /// for the current revision.
  Status Update(std::string_view key, const xml::SubtreeEdit& edit);

  /// The stored document, or nullptr if the key is unknown. Heterogeneous
  /// lookup: no temporary std::string on this hot path.
  std::shared_ptr<const StoredDocument> Get(std::string_view key) const;

  /// Removes a key; returns false if it was absent. In-flight users of the
  /// document keep their shared_ptr.
  bool Remove(std::string_view key);

  /// Registered keys, sorted.
  std::vector<std::string> Keys() const;

  size_t size() const;

  // ---------------------------------------------------------- durability
  /// Attaches the write-ahead log. Once attached, every successful mutation
  /// appends its record inside the install critical section — at the moment
  /// the revision is assigned, so journal order IS revision order — and the
  /// mutating call blocks (outside the lock) until the record's group-
  /// commit batch is durable. A mutation whose WaitDurable fails is
  /// installed in memory but reported as failed; the WAL's I/O error is
  /// sticky, so the service is effectively read-only from then on. Attach
  /// once, before traffic (QueryService does this after recovery).
  void AttachWal(wal::Wal* wal) { wal_ = wal; }

  /// The most recently assigned revision id — the checkpoint watermark.
  int64_t last_revision() const;

  // Recovery entry points (wal::Wal replay only): install state carrying
  // pre-assigned revisions, bypassing both the log and the listener.
  void RecoverPut(std::string key, xml::Document doc, int64_t revision);
  Status RecoverUpdate(std::string_view key, const xml::SubtreeEdit& edit,
                       int64_t revision);
  bool RecoverRemove(std::string_view key);
  /// Raises the revision counter to at least `floor`, so post-recovery
  /// mutations can never reuse a revision id a pre-crash observer saw.
  void RestoreRevisionFloor(int64_t floor);

 private:
  /// Sorted union of the two revisions' intern pools: a superset of the
  /// names either revision carries (see Document::InternedNames).
  static std::vector<std::string> UnionNameSets(const StoredDocument& before,
                                                const StoredDocument& after);

  /// Stamps the next revision onto `stored`, installs it under `key`
  /// (logging through the WAL when attached), and fires the listener.
  /// Shared tail of every Put* flavor.
  Status Install(std::string key, std::shared_ptr<StoredDocument> stored);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const StoredDocument>,
                     TransparentStringHash, std::equal_to<>>
      docs_;
  /// The single store-wide revision authority (guarded by mu_): every
  /// mutation draws its id inside the install critical section, which is
  /// what lets the WAL stamp records in exactly install order.
  int64_t last_revision_ = 0;
  wal::Wal* wal_ = nullptr;
  UpdateListener listener_;
  bool report_deltas_ = true;
};

}  // namespace gkx::service

#endif  // GKX_SERVICE_DOCUMENT_STORE_HPP_
