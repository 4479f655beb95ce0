#include "xml/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gkx::xml {

namespace internal {

/// RAII handle for the mapped file; Documents share it via shared_ptr so the
/// mapping outlives every copy of the views into it.
class MappedSnapshot {
 public:
  MappedSnapshot(void* base, size_t length) : base_(base), length_(length) {}
  ~MappedSnapshot() {
    if (base_ != nullptr) ::munmap(base_, length_);
  }
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const char* data() const { return static_cast<const char*>(base_); }
  size_t size() const { return length_; }

 private:
  void* base_;
  size_t length_;
};

}  // namespace internal

namespace {

constexpr char kMagic[8] = {'G', 'K', 'X', 'A', 'R', 'N', 'A', '\n'};

/// Section order in the file. Every section is 8-byte aligned.
enum Section : int {
  kParent = 0,
  kFirstChild,
  kLastChild,
  kPrevSibling,
  kNextSibling,
  kSubtreeSize,
  kDepth,
  kTag,
  kTextSpan,
  kLabelSpan,
  kAttrSpan,
  kLabelPool,
  kAttrPool,
  kHeap,
  kNames,
  kSectionCount,
};

struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t name_count;
  int64_t node_count;
  uint64_t label_pool_count;
  uint64_t attr_pool_count;
  uint64_t heap_size;
  uint64_t file_size;
  uint64_t section_offset[kSectionCount];
  uint64_t section_bytes[kSectionCount];
  uint64_t checksum;  // FNV-1a of the header with this field zeroed
};
static_assert(sizeof(SnapshotHeader) % 8 == 0, "header must stay 8-aligned");

uint64_t HeaderChecksum(SnapshotHeader header) {
  header.checksum = 0;
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(&header);
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < sizeof(header); ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t AlignUp8(uint64_t value) { return (value + 7) & ~uint64_t{7}; }

Status IoError(const std::string& what, const std::string& path) {
  return InternalError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

/// Friend of Document: reads the views for Save/Encode, installs them for
/// Map/Decode. The file and in-memory paths share one layout computation
/// and one validating decoder, so the two byte formats cannot drift.
class SnapshotCodec {
 public:
  static Status Save(const Document& doc, const std::string& path);
  static Result<Document> Map(const std::string& path);
  static void EncodeBytes(const Document& doc, std::string* out);
  static Result<Document> DecodeBytes(std::string_view bytes,
                                      const std::string& label);

 private:
  /// Header + section pointers for one serialization. `names_blob` backs
  /// section_data[kNames]; keep the Layout alive while writing.
  struct Layout {
    SnapshotHeader header;
    const void* section_data[kSectionCount];
    std::vector<char> names_blob;
  };
  static Layout ComputeLayout(const Document& doc);

  /// Validates and wires up a Document over `size` bytes at `data`. When
  /// `mapping` is null the views alias the caller's buffer — the caller
  /// must deep-copy before the buffer goes away.
  static Result<Document> Decode(
      const char* data, uint64_t size, const std::string& label,
      std::shared_ptr<internal::MappedSnapshot> mapping);
};

SnapshotCodec::Layout SnapshotCodec::ComputeLayout(const Document& doc) {
  const Document::Views& v = doc.v_;
  const uint64_t n = static_cast<uint64_t>(v.size);
  Layout out;

  // The interned-name table, as (uint32 length, bytes) records.
  for (const std::string& name : doc.names_) {
    const uint32_t length = static_cast<uint32_t>(name.size());
    const char* length_bytes = reinterpret_cast<const char*>(&length);
    out.names_blob.insert(out.names_blob.end(), length_bytes,
                          length_bytes + sizeof(length));
    out.names_blob.insert(out.names_blob.end(), name.begin(), name.end());
  }

  SnapshotHeader& header = out.header;
  header = SnapshotHeader{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kSnapshotFormatVersion;
  header.name_count = static_cast<uint32_t>(doc.names_.size());
  header.node_count = v.size;
  header.label_pool_count = v.label_pool_size;
  header.attr_pool_count = v.attr_pool_size;
  header.heap_size = v.heap_size;

  out.section_data[kParent] = v.parent;
  out.section_data[kFirstChild] = v.first_child;
  out.section_data[kLastChild] = v.last_child;
  out.section_data[kPrevSibling] = v.prev_sibling;
  out.section_data[kNextSibling] = v.next_sibling;
  out.section_data[kSubtreeSize] = v.subtree_size;
  out.section_data[kDepth] = v.depth;
  out.section_data[kTag] = v.tag;
  out.section_data[kTextSpan] = v.text_span;
  out.section_data[kLabelSpan] = v.label_span;
  out.section_data[kAttrSpan] = v.attr_span;
  out.section_data[kLabelPool] = v.label_pool;
  out.section_data[kAttrPool] = v.attr_pool;
  out.section_data[kHeap] = v.heap;
  out.section_data[kNames] = out.names_blob.data();

  header.section_bytes[kParent] = n * sizeof(NodeId);
  header.section_bytes[kFirstChild] = n * sizeof(NodeId);
  header.section_bytes[kLastChild] = n * sizeof(NodeId);
  header.section_bytes[kPrevSibling] = n * sizeof(NodeId);
  header.section_bytes[kNextSibling] = n * sizeof(NodeId);
  header.section_bytes[kSubtreeSize] = n * sizeof(int32_t);
  header.section_bytes[kDepth] = n * sizeof(int32_t);
  header.section_bytes[kTag] = n * sizeof(NameId);
  header.section_bytes[kTextSpan] = n * sizeof(PayloadSpan);
  header.section_bytes[kLabelSpan] = n * sizeof(PayloadSpan);
  header.section_bytes[kAttrSpan] = n * sizeof(PayloadSpan);
  header.section_bytes[kLabelPool] = v.label_pool_size * sizeof(NameId);
  header.section_bytes[kAttrPool] = v.attr_pool_size * sizeof(AttrEntry);
  header.section_bytes[kHeap] = v.heap_size;
  header.section_bytes[kNames] = out.names_blob.size();

  uint64_t offset = sizeof(SnapshotHeader);
  for (int s = 0; s < kSectionCount; ++s) {
    header.section_offset[s] = offset;
    offset = AlignUp8(offset + header.section_bytes[s]);
  }
  header.file_size = offset;
  header.checksum = HeaderChecksum(header);
  return out;
}

Status SnapshotCodec::Save(const Document& doc, const std::string& path) {
  const Layout layout = ComputeLayout(doc);
  const SnapshotHeader& header = layout.header;

  // Write to a temp sibling and rename: a crashed save never leaves a
  // half-written file at `path`.
  const std::string temp_path = path + ".tmp";
  FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) return IoError("cannot create", temp_path);
  auto write_all = [&](const void* data, uint64_t bytes) {
    return bytes == 0 ||
           std::fwrite(data, 1, static_cast<size_t>(bytes), file) == bytes;
  };
  bool ok = write_all(&header, sizeof(header));
  static constexpr char kPadding[8] = {};
  for (int s = 0; ok && s < kSectionCount; ++s) {
    ok = write_all(layout.section_data[s], header.section_bytes[s]) &&
         write_all(kPadding,
                   AlignUp8(header.section_bytes[s]) - header.section_bytes[s]);
  }
  // fflush + fsync before the rename: the WAL's checkpoint manifest must
  // never name a snapshot whose bytes are still in the page cache when the
  // machine dies. (rename alone orders the directory entry, not the data.)
  ok = ok && std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(temp_path.c_str());
    return IoError("short write to", temp_path);
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    return IoError("cannot rename into", path);
  }
  return Status::Ok();
}

void SnapshotCodec::EncodeBytes(const Document& doc, std::string* out) {
  const Layout layout = ComputeLayout(doc);
  const SnapshotHeader& header = layout.header;
  out->clear();
  out->reserve(static_cast<size_t>(header.file_size));
  out->append(reinterpret_cast<const char*>(&header), sizeof(header));
  static constexpr char kPadding[8] = {};
  for (int s = 0; s < kSectionCount; ++s) {
    if (header.section_bytes[s] != 0) {
      out->append(static_cast<const char*>(layout.section_data[s]),
                  static_cast<size_t>(header.section_bytes[s]));
    }
    out->append(kPadding, static_cast<size_t>(AlignUp8(header.section_bytes[s]) -
                                              header.section_bytes[s]));
  }
}

Result<Document> SnapshotCodec::DecodeBytes(std::string_view bytes,
                                            const std::string& label) {
  // The section views are typed and sections are 8-aligned relative to the
  // snapshot start, so the start must be 8-aligned too. A snapshot embedded
  // at an arbitrary offset (a WAL record payload) is first copied into
  // aligned storage; an aligned buffer (the wire's std::string) is not.
  std::vector<uint64_t> aligned;
  if (reinterpret_cast<uintptr_t>(bytes.data()) % alignof(uint64_t) != 0) {
    aligned.resize((bytes.size() + sizeof(uint64_t) - 1) / sizeof(uint64_t));
    std::memcpy(aligned.data(), bytes.data(), bytes.size());
    bytes = std::string_view(reinterpret_cast<const char*>(aligned.data()),
                             bytes.size());
  }
  Result<Document> viewed = Decode(bytes.data(), bytes.size(), label, nullptr);
  if (!viewed.ok()) return viewed;
  // The decoded views alias `bytes`; the copy constructor materializes
  // owned storage, so the result outlives the input buffer.
  return Document(*viewed);
}

Result<Document> SnapshotCodec::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("cannot open snapshot", path);
  struct stat file_stat;
  if (::fstat(fd, &file_stat) != 0) {
    ::close(fd);
    return IoError("cannot stat snapshot", path);
  }
  const uint64_t file_size = static_cast<uint64_t>(file_stat.st_size);
  if (file_size < sizeof(SnapshotHeader)) {
    ::close(fd);
    return InvalidArgumentError("snapshot " + path +
                                ": truncated before header (" +
                                std::to_string(file_size) + " bytes)");
  }
  void* base = ::mmap(nullptr, static_cast<size_t>(file_size), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (base == MAP_FAILED) return IoError("cannot mmap snapshot", path);
  auto mapping = std::make_shared<internal::MappedSnapshot>(
      base, static_cast<size_t>(file_size));
  const char* data = mapping->data();
  return Decode(data, file_size, path, std::move(mapping));
}

Result<Document> SnapshotCodec::Decode(
    const char* data, uint64_t size, const std::string& label,
    std::shared_ptr<internal::MappedSnapshot> mapping) {
  const uint64_t file_size = size;
  auto corrupt = [&](const std::string& what) {
    return InvalidArgumentError("snapshot " + label + ": " + what);
  };
  if (file_size < sizeof(SnapshotHeader)) {
    return corrupt("truncated before header (" + std::to_string(file_size) +
                   " bytes)");
  }

  // Validate the header completely before touching any section: nothing
  // below may read through an offset the checks have not bounded.
  SnapshotHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return corrupt("bad magic (not an arena snapshot)");
  }
  if (header.version != kSnapshotFormatVersion) {
    return corrupt("format version " + std::to_string(header.version) +
                   ", this build reads version " +
                   std::to_string(kSnapshotFormatVersion));
  }
  if (header.checksum != HeaderChecksum(header)) {
    return corrupt("header checksum mismatch");
  }
  if (header.file_size != file_size) {
    return corrupt("truncated: header says " +
                   std::to_string(header.file_size) + " bytes, file has " +
                   std::to_string(file_size));
  }
  if (header.node_count < 0 ||
      header.node_count > std::numeric_limits<int32_t>::max()) {
    return corrupt("implausible node count");
  }
  const uint64_t n = static_cast<uint64_t>(header.node_count);
  const uint64_t expected_bytes[kSectionCount] = {
      n * sizeof(NodeId),      n * sizeof(NodeId),
      n * sizeof(NodeId),      n * sizeof(NodeId),
      n * sizeof(NodeId),      n * sizeof(int32_t),
      n * sizeof(int32_t),     n * sizeof(NameId),
      n * sizeof(PayloadSpan), n * sizeof(PayloadSpan),
      n * sizeof(PayloadSpan), header.label_pool_count * sizeof(NameId),
      header.attr_pool_count * sizeof(AttrEntry), header.heap_size,
      header.section_bytes[kNames]};
  for (int s = 0; s < kSectionCount; ++s) {
    if (header.section_bytes[s] != expected_bytes[s]) {
      return corrupt("section " + std::to_string(s) +
                     " size disagrees with header counts");
    }
    if (header.section_offset[s] % 8 != 0 ||
        header.section_offset[s] < sizeof(SnapshotHeader) ||
        header.section_offset[s] > file_size ||
        header.section_bytes[s] > file_size - header.section_offset[s]) {
      return corrupt("section " + std::to_string(s) + " out of bounds");
    }
  }

  // Materialize the name table (small) and validate its framing. Each name
  // takes at least its 4-byte length, which bounds the count before any
  // allocation.
  if (header.name_count > header.section_bytes[kNames] / sizeof(uint32_t)) {
    return corrupt("name count exceeds name table");
  }
  std::vector<std::string> names;
  names.reserve(header.name_count);
  {
    const char* cursor = data + header.section_offset[kNames];
    uint64_t remaining = header.section_bytes[kNames];
    for (uint32_t i = 0; i < header.name_count; ++i) {
      uint32_t length;
      if (remaining < sizeof(length)) return corrupt("name table truncated");
      std::memcpy(&length, cursor, sizeof(length));
      cursor += sizeof(length);
      remaining -= sizeof(length);
      if (remaining < length) return corrupt("name table truncated");
      names.emplace_back(cursor, length);
      cursor += length;
      remaining -= length;
    }
  }

  Document doc;
  doc.mapping_ = std::move(mapping);
  doc.names_ = std::move(names);
  doc.name_ids_.reserve(doc.names_.size());
  for (NameId id = 0; id < static_cast<NameId>(doc.names_.size()); ++id) {
    doc.name_ids_.emplace(doc.names_[static_cast<size_t>(id)], id);
  }
  Document::Views& v = doc.v_;
  auto section = [&](int s) { return data + header.section_offset[s]; };
  v.parent = reinterpret_cast<const NodeId*>(section(kParent));
  v.first_child = reinterpret_cast<const NodeId*>(section(kFirstChild));
  v.last_child = reinterpret_cast<const NodeId*>(section(kLastChild));
  v.prev_sibling = reinterpret_cast<const NodeId*>(section(kPrevSibling));
  v.next_sibling = reinterpret_cast<const NodeId*>(section(kNextSibling));
  v.subtree_size = reinterpret_cast<const int32_t*>(section(kSubtreeSize));
  v.depth = reinterpret_cast<const int32_t*>(section(kDepth));
  v.tag = reinterpret_cast<const NameId*>(section(kTag));
  v.text_span = reinterpret_cast<const PayloadSpan*>(section(kTextSpan));
  v.label_span = reinterpret_cast<const PayloadSpan*>(section(kLabelSpan));
  v.attr_span = reinterpret_cast<const PayloadSpan*>(section(kAttrSpan));
  v.label_pool = reinterpret_cast<const NameId*>(section(kLabelPool));
  v.attr_pool = reinterpret_cast<const AttrEntry*>(section(kAttrPool));
  v.heap = section(kHeap);
  v.size = static_cast<int32_t>(header.node_count);
  v.label_pool_size = header.label_pool_count;
  v.attr_pool_size = header.attr_pool_count;
  v.heap_size = header.heap_size;
  return doc;
}

Status SaveSnapshot(const Document& doc, const std::string& path) {
  return SnapshotCodec::Save(doc, path);
}

Result<Document> MapSnapshot(const std::string& path) {
  return SnapshotCodec::Map(path);
}

void SaveSnapshotBytes(const Document& doc, std::string* out) {
  SnapshotCodec::EncodeBytes(doc, out);
}

Result<Document> LoadSnapshotBytes(std::string_view bytes,
                                   const std::string& label) {
  return SnapshotCodec::DecodeBytes(bytes, label);
}

}  // namespace gkx::xml
