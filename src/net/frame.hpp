// gkx::net — the minimal length-prefixed binary wire protocol that lets a
// client drive a (sharded) QueryService across a process boundary. The
// framing reuses the WAL's discipline (src/wal/record.hpp):
//
//   frame   := [u32 payload_size][u32 crc32(payload)][payload bytes]
//   payload := [u8 version][u8 msg type][body]
//
// all integers little-endian, CRC-32 IEEE (wal::Crc32). The version byte is
// first in every payload so a future format can be detected before any body
// parsing; decoders reject unknown versions and unknown types outright, and
// every length is bounds-checked (wal::wire::Reader) — a truncated or
// bit-flipped frame fails the CRC or the reader, never reads past a buffer.
// The exact bytes are pinned by golden tests (net_codec_test.cpp): changing
// any of this is a protocol break and must bump kWireVersion.
//
// Answer values round-trip exactly (numbers as raw IEEE-754 bits, node-sets
// as id lists), so a wire answer is byte-identical — DebugString and all —
// to the in-process answer it serializes, fragment flags included.

#ifndef GKX_NET_FRAME_HPP_
#define GKX_NET_FRAME_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "eval/engine.hpp"
#include "xml/edit.hpp"

namespace gkx::net {

inline constexpr uint8_t kWireVersion = 1;

/// Frames larger than this are rejected at read time — a flipped size bit
/// must not trigger a multi-GB allocation.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{1} << 30;

enum class MsgType : uint8_t {
  // Requests.
  kPing = 1,
  kSubmit = 2,       // one WireRequest
  kSubmitBatch = 3,  // many WireRequests, answered positionally
  kRegisterXml = 4,  // doc_key + xml text
  kUpdate = 5,       // doc_key + SubtreeEdit (subtree as arena snapshot)
  kRemove = 6,       // doc_key
  kStats = 7,        // stats_format (0 text, 1 json)
  // Responses (high bit of the low nibble set — disjoint from requests).
  kPong = 65,
  kAnswer = 66,       // one WireAnswer
  kAnswerBatch = 67,  // one WireAnswer per request, in request order
  kStatusReply = 68,  // status of a mutation
  kStatsReply = 69,   // rendered stats document in `text`
};

struct WireRequest {
  std::string doc_key;
  std::string query;
};

/// One per-request outcome: a non-OK status (the answer is then empty) or
/// the full Engine answer.
struct WireAnswer {
  Status status;
  eval::Engine::Answer answer;
};

/// The decoded form of any message; which fields are meaningful depends on
/// `type` (see the per-type comments in MsgType).
struct Message {
  MsgType type = MsgType::kPing;
  std::vector<WireRequest> requests;  // kSubmit (exactly one) / kSubmitBatch
  std::string doc_key;                // kRegisterXml / kUpdate / kRemove
  std::string text;                   // kRegisterXml: xml; kStatsReply: body
  xml::SubtreeEdit edit;              // kUpdate
  uint8_t stats_format = 0;           // kStats: 0 text, 1 json
  Status status;                      // kStatusReply
  std::vector<WireAnswer> answers;    // kAnswer (exactly one) / kAnswerBatch
};

/// Serializes a message into a payload (frame header NOT included).
std::string EncodeMessage(const Message& message);

/// The kSubmitBatch payload for `requests`: the bytes EncodeMessage writes
/// for a Message carrying them, without copying them into one.
std::string EncodeSubmitBatch(const std::vector<WireRequest>& requests);

/// Parses a payload back. Rejects unknown versions/types, truncated bodies,
/// and trailing bytes.
Result<Message> DecodeMessage(std::string_view payload);

/// Appends [size][crc][payload] to `*out` (wal::AppendFrame).
void AppendFrame(std::string_view payload, std::string* out);

// ------------------------------------------------------- blocking stream IO

/// Writes one frame to a connected socket/fd, looping over partial writes.
Status WriteFrame(int fd, std::string_view payload);

/// Reads one frame, looping over partial reads, and verifies the CRC. A
/// clean EOF before the first header byte sets `*clean_eof` and returns an
/// empty payload; EOF mid-frame, a CRC mismatch, or an oversized size field
/// is an error. The buffer grows with the bytes that arrive, not with the
/// size the header declares.
Result<std::string> ReadFrame(int fd, bool* clean_eof);

}  // namespace gkx::net

#endif  // GKX_NET_FRAME_HPP_
