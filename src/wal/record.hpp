// Wire format of the write-ahead journal. One journal = a fixed 16-byte
// file header followed by a sequence of frames:
//
//   frame   := [u32 payload_size][u32 crc32(payload)][payload bytes]
//   payload := [i64 revision][u8 op][u32 key_size][key bytes][body]
//
// all integers little-endian. The body depends on op:
//
//   kPut    := [u64 doc_size][arena snapshot bytes]        (whole document)
//   kUpdate := [u8 edit kind][i32 target][i32 position]
//              [u32 text_size][text][u32 label_size][label]
//              [u64 subtree_size][arena snapshot bytes]    (empty if none)
//   kRemove := (empty)
//
// The revision sits at a fixed offset (0) of the payload so DocumentStore
// can stamp it under the install lock — after the expensive body encoding
// already happened outside the lock — without re-encoding. StampRevision
// patches those 8 bytes; the CRC is computed at frame-append time, which is
// also under the lock but is a single cheap pass.
//
// Recovery reads frames until the first failure (short header, implausible
// size, CRC mismatch). Because appends are sequential, any such failure is
// a torn tail from a crash mid-write (or corruption); everything from that
// offset on is truncated and reported, never partially applied — a frame's
// CRC is verified before its payload is decoded.

#ifndef GKX_WAL_RECORD_HPP_
#define GKX_WAL_RECORD_HPP_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "base/status.hpp"
#include "xml/edit.hpp"
#include "xml/document.hpp"

namespace gkx::wal {

/// Journal file header: magic, format version, reserved zero word.
inline constexpr char kJournalMagic[8] = {'G', 'K', 'X', 'W', 'A', 'L', '1', '\n'};
inline constexpr uint32_t kJournalFormatVersion = 1;
inline constexpr uint64_t kJournalHeaderBytes = 16;

/// Frame header: u32 payload size + u32 CRC.
inline constexpr uint64_t kFrameHeaderBytes = 8;

/// Smallest possible payload: revision + op + empty key + empty body.
inline constexpr uint64_t kMinPayloadBytes = 8 + 1 + 4;

/// Frames larger than this are rejected as corrupt at read time (a bit flip
/// in the size field must not cause a multi-GB allocation or a bogus skip).
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 40;

enum class Op : uint8_t {
  kPut = 1,     // install a whole document
  kUpdate = 2,  // apply a SubtreeEdit to the installed document
  kRemove = 3,  // remove the document
};

/// One decoded journal record.
struct Record {
  Op op = Op::kPut;
  int64_t revision = 0;
  std::string key;
  xml::Document doc;      // kPut: the document
  xml::SubtreeEdit edit;  // kUpdate: the edit (subtree owned)
};

/// CRC-32 (IEEE 802.3, reflected), table-driven.
uint32_t Crc32(const void* data, size_t size);

/// Serializes `record` into `*payload` (frame header NOT included).
/// `record.revision` may be a placeholder; StampRevision patches it later.
void EncodePayload(const Record& record, std::string* payload);

/// Overwrites the revision field (payload offset 0) in an encoded payload.
void StampRevision(std::string* payload, int64_t revision);

/// Parses one payload back into a Record, validating framing and the
/// embedded snapshot bytes (full header checksum + section bounds).
Result<Record> DecodePayload(std::string_view payload);

/// Appends [size][crc][payload] to `*out`.
void AppendFrame(std::string_view payload, std::string* out);

/// Reads the frame starting at `*offset` in `data`, advancing `*offset`
/// past it. Preconditions: `*offset < data.size()` (callers detect clean
/// end-of-log by offset == size before calling). Any failure — short
/// header, size out of bounds, CRC mismatch — returns InvalidArgument and
/// leaves `*offset` untouched: it marks the start of the torn tail.
Result<std::string_view> ReadFrame(std::string_view data, uint64_t* offset);

/// Appends the 16-byte journal file header to `*out`.
void AppendJournalHeader(std::string* out);

/// Validates a journal file header. Returns the first frame offset
/// (kJournalHeaderBytes) or an error.
Result<uint64_t> CheckJournalHeader(std::string_view data);

/// Little-endian primitive (de)serialization shared by the record and
/// manifest codecs.
namespace wire {

template <typename T>
inline void Append(T value, std::string* out) {
  static_assert(std::is_integral_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

inline void AppendString(std::string_view s, std::string* out) {
  Append(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

/// Bounds-checked sequential reader; every Read* returns false instead of
/// reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Read(T* value) {
    static_assert(std::is_integral_v<T>);
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out) {
    uint32_t size = 0;
    if (!Read(&size) || data_.size() - pos_ < size) return false;
    out->assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  bool ReadBlob(uint64_t size, std::string_view* out) {
    if (data_.size() - pos_ < size) return false;
    *out = data_.substr(pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace wire

}  // namespace gkx::wal

#endif  // GKX_WAL_RECORD_HPP_
