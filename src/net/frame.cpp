#include "net/frame.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "wal/record.hpp"
#include "xml/snapshot.hpp"

namespace gkx::net {

namespace {

using wal::wire::Append;
using wal::wire::AppendString;
using wal::wire::Reader;

Status Corrupt(const std::string& what) {
  return InvalidArgumentError("net: " + what);
}

/// Smallest encodings of one batch element: a request is two empty strings;
/// an answer is a non-OK status with an empty message. A declared count
/// above remaining / smallest cannot be honest, so it is rejected before
/// anything is allocated for it.
constexpr size_t kMinRequestBytes = 4 + 4;
constexpr size_t kMinAnswerBytes = 1 + 4;

// ----------------------------------------------------------------- status

// [u8 code][string message]; code 0 is OK (empty message). The numeric
// mapping is pinned here, independent of the StatusCode enum order.
uint8_t StatusCodeByte(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kUnsupported: return 2;
    case StatusCode::kOutOfRange: return 3;
    case StatusCode::kFailedPrecondition: return 4;
    case StatusCode::kInternal: return 5;
  }
  return 5;
}

bool StatusCodeFromByte(uint8_t byte, StatusCode* out) {
  switch (byte) {
    case 0: *out = StatusCode::kOk; return true;
    case 1: *out = StatusCode::kInvalidArgument; return true;
    case 2: *out = StatusCode::kUnsupported; return true;
    case 3: *out = StatusCode::kOutOfRange; return true;
    case 4: *out = StatusCode::kFailedPrecondition; return true;
    case 5: *out = StatusCode::kInternal; return true;
  }
  return false;
}

void EncodeStatus(const Status& status, std::string* out) {
  Append<uint8_t>(StatusCodeByte(status.code()), out);
  AppendString(status.message(), out);
}

bool DecodeStatus(Reader* reader, Status* out) {
  uint8_t code_byte = 0;
  std::string message;
  StatusCode code;
  if (!reader->Read(&code_byte) || !reader->ReadString(&message) ||
      !StatusCodeFromByte(code_byte, &code)) {
    return false;
  }
  *out = code == StatusCode::kOk ? Status::Ok()
                                 : Status(code, std::move(message));
  return true;
}

// ------------------------------------------------------------------ value

// [u8 kind] + kind-specific payload. Kind bytes pinned for the wire.
constexpr uint8_t kValueBoolean = 0;
constexpr uint8_t kValueNumber = 1;
constexpr uint8_t kValueString = 2;
constexpr uint8_t kValueNodeSet = 3;

void EncodeValue(const eval::Value& value, std::string* out) {
  switch (value.type()) {
    case xpath::ValueType::kBoolean:
      Append<uint8_t>(kValueBoolean, out);
      Append<uint8_t>(value.boolean() ? 1 : 0, out);
      return;
    case xpath::ValueType::kNumber: {
      // Raw IEEE-754 bits: NaN payloads and signed zeros survive the trip.
      Append<uint8_t>(kValueNumber, out);
      uint64_t bits = 0;
      const double number = value.number();
      std::memcpy(&bits, &number, sizeof(bits));
      Append<uint64_t>(bits, out);
      return;
    }
    case xpath::ValueType::kString:
      Append<uint8_t>(kValueString, out);
      AppendString(value.string(), out);
      return;
    case xpath::ValueType::kNodeSet: {
      Append<uint8_t>(kValueNodeSet, out);
      const eval::NodeSet& nodes = value.nodes();
      Append<uint32_t>(static_cast<uint32_t>(nodes.size()), out);
      // One bulk append of the contiguous id array. Same little-endian
      // host-representation assumption as Append<int32_t> per element,
      // without paying a length/growth check per id.
      out->append(reinterpret_cast<const char*>(nodes.data()),
                  nodes.size() * sizeof(int32_t));
      return;
    }
  }
}

Result<eval::Value> DecodeValue(Reader* reader) {
  uint8_t kind = 0;
  if (!reader->Read(&kind)) return Corrupt("truncated value");
  switch (kind) {
    case kValueBoolean: {
      uint8_t b = 0;
      if (!reader->Read(&b)) return Corrupt("truncated boolean value");
      return eval::Value::Boolean(b != 0);
    }
    case kValueNumber: {
      uint64_t bits = 0;
      if (!reader->Read(&bits)) return Corrupt("truncated number value");
      double number = 0.0;
      std::memcpy(&number, &bits, sizeof(number));
      return eval::Value::Number(number);
    }
    case kValueString: {
      std::string s;
      if (!reader->ReadString(&s)) return Corrupt("truncated string value");
      return eval::Value::String(std::move(s));
    }
    case kValueNodeSet: {
      uint32_t count = 0;
      if (!reader->Read(&count)) return Corrupt("truncated node-set value");
      std::string_view raw;
      if (!reader->ReadBlob(static_cast<uint64_t>(count) * sizeof(int32_t),
                            &raw)) {
        return Corrupt("truncated node-set value");
      }
      eval::NodeSet nodes(count);
      std::memcpy(nodes.data(), raw.data(), raw.size());
      return eval::Value::Nodes(std::move(nodes));
    }
  }
  return Corrupt("unknown value kind");
}

// --------------------------------------------------------------- fragment

// [u8 membership flags][u8 smallest]. `notes` stays off the wire.
constexpr uint8_t kFragPf = 1 << 0;
constexpr uint8_t kFragPositiveCore = 1 << 1;
constexpr uint8_t kFragCore = 1 << 2;
constexpr uint8_t kFragPwf = 1 << 3;
constexpr uint8_t kFragWf = 1 << 4;
constexpr uint8_t kFragPxpath = 1 << 5;

uint8_t FragmentByte(xpath::Fragment fragment) {
  switch (fragment) {
    case xpath::Fragment::kPF: return 0;
    case xpath::Fragment::kPositiveCore: return 1;
    case xpath::Fragment::kCore: return 2;
    case xpath::Fragment::kPWF: return 3;
    case xpath::Fragment::kWF: return 4;
    case xpath::Fragment::kPXPath: return 5;
    case xpath::Fragment::kFullXPath: return 6;
  }
  return 6;
}

bool FragmentFromByte(uint8_t byte, xpath::Fragment* out) {
  switch (byte) {
    case 0: *out = xpath::Fragment::kPF; return true;
    case 1: *out = xpath::Fragment::kPositiveCore; return true;
    case 2: *out = xpath::Fragment::kCore; return true;
    case 3: *out = xpath::Fragment::kPWF; return true;
    case 4: *out = xpath::Fragment::kWF; return true;
    case 5: *out = xpath::Fragment::kPXPath; return true;
    case 6: *out = xpath::Fragment::kFullXPath; return true;
  }
  return false;
}

void EncodeFragment(const xpath::FragmentReport& report, std::string* out) {
  uint8_t flags = 0;
  if (report.in_pf) flags |= kFragPf;
  if (report.in_positive_core) flags |= kFragPositiveCore;
  if (report.in_core) flags |= kFragCore;
  if (report.in_pwf) flags |= kFragPwf;
  if (report.in_wf) flags |= kFragWf;
  if (report.in_pxpath) flags |= kFragPxpath;
  Append<uint8_t>(flags, out);
  Append<uint8_t>(FragmentByte(report.smallest), out);
}

Result<xpath::FragmentReport> DecodeFragment(Reader* reader) {
  uint8_t flags = 0, smallest = 0;
  if (!reader->Read(&flags) || !reader->Read(&smallest)) {
    return Corrupt("truncated fragment report");
  }
  xpath::FragmentReport report;
  report.in_pf = (flags & kFragPf) != 0;
  report.in_positive_core = (flags & kFragPositiveCore) != 0;
  report.in_core = (flags & kFragCore) != 0;
  report.in_pwf = (flags & kFragPwf) != 0;
  report.in_wf = (flags & kFragWf) != 0;
  report.in_pxpath = (flags & kFragPxpath) != 0;
  if (!FragmentFromByte(smallest, &report.smallest)) {
    return Corrupt("unknown fragment byte");
  }
  return report;
}

// ----------------------------------------------------------------- answer

void EncodeAnswer(const WireAnswer& wire, std::string* out) {
  EncodeStatus(wire.status, out);
  if (!wire.status.ok()) return;
  AppendString(wire.answer.evaluator, out);
  EncodeFragment(wire.answer.fragment, out);
  EncodeValue(wire.answer.value, out);
}

Result<WireAnswer> DecodeAnswer(Reader* reader) {
  WireAnswer wire;
  if (!DecodeStatus(reader, &wire.status)) return Corrupt("bad status");
  if (!wire.status.ok()) return wire;
  if (!reader->ReadString(&wire.answer.evaluator)) {
    return Corrupt("truncated answer evaluator");
  }
  GKX_ASSIGN_OR_RETURN(wire.answer.fragment, DecodeFragment(reader));
  GKX_ASSIGN_OR_RETURN(wire.answer.value, DecodeValue(reader));
  return wire;
}

// ------------------------------------------------------------------- edit

// [u8 kind][i32 target][i32 position][string text][string label]
// [u8 has_subtree][string snapshot bytes] — the subtree rides as an arena
// snapshot (xml/snapshot.hpp), whose own header checksum re-validates it.
uint8_t EditKindByte(xml::SubtreeEdit::Kind kind) {
  switch (kind) {
    case xml::SubtreeEdit::Kind::kReplaceSubtree: return 0;
    case xml::SubtreeEdit::Kind::kRemoveSubtree: return 1;
    case xml::SubtreeEdit::Kind::kInsertSubtree: return 2;
    case xml::SubtreeEdit::Kind::kSetText: return 3;
    case xml::SubtreeEdit::Kind::kRelabel: return 4;
  }
  return 3;
}

bool EditKindFromByte(uint8_t byte, xml::SubtreeEdit::Kind* out) {
  switch (byte) {
    case 0: *out = xml::SubtreeEdit::Kind::kReplaceSubtree; return true;
    case 1: *out = xml::SubtreeEdit::Kind::kRemoveSubtree; return true;
    case 2: *out = xml::SubtreeEdit::Kind::kInsertSubtree; return true;
    case 3: *out = xml::SubtreeEdit::Kind::kSetText; return true;
    case 4: *out = xml::SubtreeEdit::Kind::kRelabel; return true;
  }
  return false;
}

void EncodeEdit(const xml::SubtreeEdit& edit, std::string* out) {
  Append<uint8_t>(EditKindByte(edit.kind), out);
  Append<int32_t>(edit.target, out);
  Append<int32_t>(edit.position, out);
  AppendString(edit.text, out);
  AppendString(edit.label, out);
  if (edit.subtree.empty()) {
    Append<uint8_t>(0, out);
  } else {
    Append<uint8_t>(1, out);
    std::string snapshot;
    xml::SaveSnapshotBytes(edit.subtree, &snapshot);
    AppendString(snapshot, out);
  }
}

Result<xml::SubtreeEdit> DecodeEdit(Reader* reader) {
  xml::SubtreeEdit edit;
  uint8_t kind_byte = 0, has_subtree = 0;
  if (!reader->Read(&kind_byte) || !EditKindFromByte(kind_byte, &edit.kind) ||
      !reader->Read(&edit.target) || !reader->Read(&edit.position) ||
      !reader->ReadString(&edit.text) || !reader->ReadString(&edit.label) ||
      !reader->Read(&has_subtree)) {
    return Corrupt("truncated edit");
  }
  if (has_subtree != 0) {
    std::string snapshot;
    if (!reader->ReadString(&snapshot)) return Corrupt("truncated edit subtree");
    GKX_ASSIGN_OR_RETURN(edit.subtree,
                         xml::LoadSnapshotBytes(snapshot, "wire edit subtree"));
  }
  return edit;
}

void EncodeRequest(const WireRequest& request, std::string* out) {
  AppendString(request.doc_key, out);
  AppendString(request.query, out);
}

/// The kSubmitBatch body: [u32 count] then each request.
void EncodeRequestBatch(const std::vector<WireRequest>& requests,
                        std::string* out) {
  Append<uint32_t>(static_cast<uint32_t>(requests.size()), out);
  for (const WireRequest& request : requests) EncodeRequest(request, out);
}

/// Rough encoded sizes of one batch element: a request is two short
/// strings, an answer a value + fragment + evaluator. Reserving by them
/// saves the growth-reallocation ladder on large batches; exactness is
/// irrelevant.
constexpr size_t kRequestBytesGuess = 48;
constexpr size_t kAnswerBytesGuess = 96;

/// A payload buffer holding the [version][type] header, `reserve` bytes
/// reserved.
std::string BeginPayload(MsgType type, size_t reserve) {
  std::string out;
  out.reserve(reserve);
  Append<uint8_t>(kWireVersion, &out);
  Append<uint8_t>(static_cast<uint8_t>(type), &out);
  return out;
}

Result<WireRequest> DecodeRequest(Reader* reader) {
  WireRequest request;
  if (!reader->ReadString(&request.doc_key) ||
      !reader->ReadString(&request.query)) {
    return Corrupt("truncated request");
  }
  return request;
}

}  // namespace

std::string EncodeMessage(const Message& message) {
  std::string out = BeginPayload(
      message.type, 16 + message.requests.size() * kRequestBytesGuess +
                        message.answers.size() * kAnswerBytesGuess +
                        message.text.size());
  switch (message.type) {
    case MsgType::kPing:
    case MsgType::kPong:
      break;
    case MsgType::kSubmit:
      EncodeRequest(message.requests.at(0), &out);
      break;
    case MsgType::kSubmitBatch:
      EncodeRequestBatch(message.requests, &out);
      break;
    case MsgType::kRegisterXml:
      AppendString(message.doc_key, &out);
      AppendString(message.text, &out);
      break;
    case MsgType::kUpdate:
      AppendString(message.doc_key, &out);
      EncodeEdit(message.edit, &out);
      break;
    case MsgType::kRemove:
      AppendString(message.doc_key, &out);
      break;
    case MsgType::kStats:
      Append<uint8_t>(message.stats_format, &out);
      break;
    case MsgType::kAnswer:
      EncodeAnswer(message.answers.at(0), &out);
      break;
    case MsgType::kAnswerBatch:
      Append<uint32_t>(static_cast<uint32_t>(message.answers.size()), &out);
      for (const WireAnswer& answer : message.answers) {
        EncodeAnswer(answer, &out);
      }
      break;
    case MsgType::kStatusReply:
      EncodeStatus(message.status, &out);
      break;
    case MsgType::kStatsReply:
      AppendString(message.text, &out);
      break;
  }
  return out;
}

std::string EncodeSubmitBatch(const std::vector<WireRequest>& requests) {
  std::string out = BeginPayload(MsgType::kSubmitBatch,
                                 16 + requests.size() * kRequestBytesGuess);
  EncodeRequestBatch(requests, &out);
  return out;
}

Result<Message> DecodeMessage(std::string_view payload) {
  Reader reader(payload);
  uint8_t version = 0, type_byte = 0;
  if (!reader.Read(&version) || !reader.Read(&type_byte)) {
    return Corrupt("truncated payload header");
  }
  if (version != kWireVersion) {
    return Corrupt("unsupported wire version " + std::to_string(version));
  }
  Message message;
  message.type = static_cast<MsgType>(type_byte);
  switch (message.type) {
    case MsgType::kPing:
    case MsgType::kPong:
      break;
    case MsgType::kSubmit: {
      WireRequest request;
      GKX_ASSIGN_OR_RETURN(request, DecodeRequest(&reader));
      message.requests.push_back(std::move(request));
      break;
    }
    case MsgType::kSubmitBatch: {
      uint32_t count = 0;
      if (!reader.Read(&count)) return Corrupt("truncated batch");
      if (count > reader.remaining() / kMinRequestBytes) {
        return Corrupt("batch count exceeds payload");
      }
      message.requests.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        WireRequest request;
        GKX_ASSIGN_OR_RETURN(request, DecodeRequest(&reader));
        message.requests.push_back(std::move(request));
      }
      break;
    }
    case MsgType::kRegisterXml:
      if (!reader.ReadString(&message.doc_key) ||
          !reader.ReadString(&message.text)) {
        return Corrupt("truncated register");
      }
      break;
    case MsgType::kUpdate: {
      if (!reader.ReadString(&message.doc_key)) {
        return Corrupt("truncated update");
      }
      GKX_ASSIGN_OR_RETURN(message.edit, DecodeEdit(&reader));
      break;
    }
    case MsgType::kRemove:
      if (!reader.ReadString(&message.doc_key)) {
        return Corrupt("truncated remove");
      }
      break;
    case MsgType::kStats:
      if (!reader.Read(&message.stats_format)) {
        return Corrupt("truncated stats request");
      }
      break;
    case MsgType::kAnswer: {
      WireAnswer answer;
      GKX_ASSIGN_OR_RETURN(answer, DecodeAnswer(&reader));
      message.answers.push_back(std::move(answer));
      break;
    }
    case MsgType::kAnswerBatch: {
      uint32_t count = 0;
      if (!reader.Read(&count)) return Corrupt("truncated answer batch");
      if (count > reader.remaining() / kMinAnswerBytes) {
        return Corrupt("answer batch count exceeds payload");
      }
      message.answers.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        WireAnswer answer;
        GKX_ASSIGN_OR_RETURN(answer, DecodeAnswer(&reader));
        message.answers.push_back(std::move(answer));
      }
      break;
    }
    case MsgType::kStatusReply:
      if (!DecodeStatus(&reader, &message.status)) {
        return Corrupt("bad status reply");
      }
      break;
    case MsgType::kStatsReply:
      if (!reader.ReadString(&message.text)) {
        return Corrupt("truncated stats reply");
      }
      break;
    default:
      return Corrupt("unknown message type " + std::to_string(type_byte));
  }
  if (!reader.AtEnd()) return Corrupt("trailing bytes after message");
  return message;
}

void AppendFrame(std::string_view payload, std::string* out) {
  wal::AppendFrame(payload, out);
}

Status WriteFrame(int fd, std::string_view payload) {
  std::string frame;
  frame.reserve(wal::kFrameHeaderBytes + payload.size());
  wal::AppendFrame(payload, &frame);
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n = ::write(fd, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("net: write failed: ") +
                           std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

/// Reads exactly `size` bytes. `*clean_eof` is set only when EOF hits
/// before the first byte AND `eof_ok` allows it.
Status ReadExactly(int fd, char* buffer, size_t size, bool eof_ok,
                   bool* clean_eof) {
  size_t have = 0;
  while (have < size) {
    ssize_t n = ::read(fd, buffer + have, size - have);
    if (n < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("net: read failed: ") +
                           std::strerror(errno));
    }
    if (n == 0) {
      if (have == 0 && eof_ok) {
        *clean_eof = true;
        return Status::Ok();
      }
      return InternalError("net: connection closed mid-frame");
    }
    have += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Result<std::string> ReadFrame(int fd, bool* clean_eof) {
  *clean_eof = false;
  char header[wal::kFrameHeaderBytes];
  GKX_RETURN_IF_ERROR(
      ReadExactly(fd, header, sizeof(header), /*eof_ok=*/true, clean_eof));
  if (*clean_eof) return std::string();
  uint32_t size = 0, crc = 0;
  std::memcpy(&size, header, sizeof(size));
  std::memcpy(&crc, header + sizeof(size), sizeof(crc));
  if (size > kMaxPayloadBytes) {
    return InvalidArgumentError("net: implausible frame size " +
                                std::to_string(size));
  }
  // The header is the peer's claim, not its bytes: grow the buffer as the
  // body arrives (one chunk, then doubling), so a lying header commits at
  // most one chunk or twice what was really sent. A frame up to one chunk
  // still reads in one piece.
  constexpr size_t kReadChunk = size_t{64} << 10;
  std::string payload;
  bool ignored = false;
  for (size_t have = 0; have < size;) {
    const size_t target =
        std::min<size_t>(size, std::max(kReadChunk, 2 * have));
    payload.resize(target);
    GKX_RETURN_IF_ERROR(ReadExactly(fd, payload.data() + have, target - have,
                                    /*eof_ok=*/false, &ignored));
    have = target;
  }
  if (wal::Crc32(payload.data(), payload.size()) != crc) {
    return InvalidArgumentError("net: frame CRC mismatch");
  }
  return payload;
}

}  // namespace gkx::net
