// Relocatable on-disk form of the SoA arena. Because every column and pool
// is a flat POD array and every cross-reference is an offset (NodeId,
// NameId, PayloadSpan, AttrEntry), a snapshot is a straight dump of the
// arena sections behind a self-describing header — and mapping one back is
// mmap + pointer arithmetic, with NO fix-up pass over the payload. Cold
// first-query latency on a multi-GB document is therefore page-fault bound,
// not parse bound (measured in bench_hugedoc).
//
// The mapped Document's column views point into the mapping, which is kept
// alive by a shared handle; the interned-name table (small) is materialized
// at map time. Mapped documents are immutable — copying one materializes
// owned storage (e.g. before ApplyEdit).
//
// Safety: MapSnapshot validates magic, format version, header checksum, and
// that every section lies inside the actual file before publishing any
// pointer, so a truncated, version-bumped, or bit-flipped header fails with
// a clean InvalidArgument diagnostic instead of UB (xml_snapshot_test
// exercises the corruption matrix). The section contents are then checked
// in one read-only pass over the columns: the links must describe one tree
// in preorder that agrees with the subtree sizes, and every name and
// payload span must lie inside its table (Document's invariant, which the
// evaluators' unchecked column sweeps rely on). A snapshot that arrives
// over the wire or from the journal is held to the same check.

#ifndef GKX_XML_SNAPSHOT_HPP_
#define GKX_XML_SNAPSHOT_HPP_

#include <string>
#include <string_view>

#include "base/status.hpp"
#include "xml/document.hpp"

namespace gkx::xml {

/// Current snapshot format version; bumped on any layout change. Mapping a
/// snapshot with a different version fails cleanly.
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Writes `doc`'s arena to `path` (atomically: temp file + rename).
Status SaveSnapshot(const Document& doc, const std::string& path);

/// Memory-maps a snapshot written by SaveSnapshot. The returned Document
/// serves queries directly out of the mapping.
Result<Document> MapSnapshot(const std::string& path);

/// Serializes `doc`'s arena into `out` — byte-identical to the file
/// SaveSnapshot writes, but in memory. The WAL uses this to embed whole
/// documents (Put payloads, edit subtrees) inside journal records.
void SaveSnapshotBytes(const Document& doc, std::string* out);

/// Decodes a snapshot byte string produced by SaveSnapshotBytes with the
/// same full validation MapSnapshot performs (magic, version, checksum,
/// section bounds, section contents). Returns an owned deep copy — the
/// result does not alias `bytes`. `label` names the source in error
/// diagnostics.
Result<Document> LoadSnapshotBytes(std::string_view bytes,
                                   const std::string& label = "snapshot bytes");

}  // namespace gkx::xml

#endif  // GKX_XML_SNAPSHOT_HPP_
