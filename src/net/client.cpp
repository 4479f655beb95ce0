#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gkx::net {

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return FailedPreconditionError("net: already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("net: socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgumentError("net: bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = InternalError("net: connect " + host + ":" +
                                  std::to_string(port) + ": " +
                                  std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::Ok();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Message> Client::RoundTrip(std::string_view payload, MsgType expected) {
  if (fd_ < 0) return FailedPreconditionError("net: not connected");
  Status write = WriteFrame(fd_, payload);
  if (!write.ok()) {
    Close();
    return write;
  }
  bool clean_eof = false;
  Result<std::string> reply = ReadFrame(fd_, &clean_eof);
  if (!reply.ok() || clean_eof) {
    Close();
    if (!reply.ok()) return reply.status();
    return InternalError("net: server closed the connection");
  }
  Result<Message> response = DecodeMessage(*reply);
  if (!response.ok()) {
    Close();
    return response.status();
  }
  // A kStatusReply in place of the expected type carries the server-side
  // error for this request (e.g. a mutation status, or a decode rejection).
  if (response->type != expected) {
    if (response->type == MsgType::kStatusReply && !response->status.ok()) {
      return response->status;
    }
    Close();
    return InternalError("net: unexpected response type " +
                         std::to_string(static_cast<int>(response->type)));
  }
  return response;
}

Status Client::Ping() {
  Message request;
  request.type = MsgType::kPing;
  return RoundTrip(EncodeMessage(request), MsgType::kPong).status();
}

Result<Client::Answer> Client::Submit(const std::string& doc_key,
                                      const std::string& query_text) {
  Message request;
  request.type = MsgType::kSubmit;
  request.requests.push_back({doc_key, query_text});
  Result<Message> response =
      RoundTrip(EncodeMessage(request), MsgType::kAnswer);
  if (!response.ok()) return response.status();
  if (response->answers.size() != 1) {
    Close();
    return InternalError("net: malformed answer");
  }
  WireAnswer& wire = response->answers[0];
  if (!wire.status.ok()) return wire.status;
  return std::move(wire.answer);
}

std::vector<Result<Client::Answer>> Client::SubmitBatch(
    const std::vector<WireRequest>& requests) {
  Result<Message> response =
      RoundTrip(EncodeSubmitBatch(requests), MsgType::kAnswerBatch);
  if (response.ok() && response->answers.size() != requests.size()) {
    Close();
    response = InternalError("net: answer count mismatch");
  }
  std::vector<Result<Answer>> out;
  out.reserve(requests.size());
  if (!response.ok()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      out.emplace_back(response.status());
    }
    return out;
  }
  for (WireAnswer& wire : response->answers) {
    if (wire.status.ok()) {
      out.emplace_back(std::move(wire.answer));
    } else {
      out.emplace_back(wire.status);
    }
  }
  return out;
}

Status Client::RegisterXml(const std::string& doc_key,
                           const std::string& xml) {
  Message request;
  request.type = MsgType::kRegisterXml;
  request.doc_key = doc_key;
  request.text = xml;
  Result<Message> response =
      RoundTrip(EncodeMessage(request), MsgType::kStatusReply);
  if (!response.ok()) return response.status();
  return response->status;
}

Status Client::UpdateDocument(const std::string& doc_key,
                              const xml::SubtreeEdit& edit) {
  Message request;
  request.type = MsgType::kUpdate;
  request.doc_key = doc_key;
  request.edit = edit;
  Result<Message> response =
      RoundTrip(EncodeMessage(request), MsgType::kStatusReply);
  if (!response.ok()) return response.status();
  return response->status;
}

Status Client::RemoveDocument(const std::string& doc_key) {
  Message request;
  request.type = MsgType::kRemove;
  request.doc_key = doc_key;
  Result<Message> response =
      RoundTrip(EncodeMessage(request), MsgType::kStatusReply);
  if (!response.ok()) return response.status();
  return response->status;
}

Result<std::string> Client::ExportStats(service::StatsFormat format) {
  Message request;
  request.type = MsgType::kStats;
  request.stats_format = format == service::StatsFormat::kJson ? 1 : 0;
  Result<Message> response =
      RoundTrip(EncodeMessage(request), MsgType::kStatsReply);
  if (!response.ok()) return response.status();
  return std::move(response->text);
}

}  // namespace gkx::net
