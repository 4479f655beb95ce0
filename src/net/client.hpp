// Blocking single-connection client for the gkx::net wire protocol. One
// request is in flight at a time (write frame, read frame); the class is
// NOT thread-safe — callers wanting parallel wire traffic open one Client
// per thread, which also matches the server's thread-per-connection model.
//
// Transport errors (broken connection, CRC mismatch, protocol violation)
// surface as the per-call Status; after one the connection is closed and
// the client must Connect() again.

#ifndef GKX_NET_CLIENT_HPP_
#define GKX_NET_CLIENT_HPP_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.hpp"
#include "eval/engine.hpp"
#include "net/frame.hpp"
#include "service/stats.hpp"
#include "xml/edit.hpp"

namespace gkx::net {

class Client {
 public:
  using Answer = eval::Engine::Answer;

  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  Status Ping();
  Result<Answer> Submit(const std::string& doc_key,
                        const std::string& query_text);
  /// One round trip for the whole batch; responses positional. A transport
  /// failure fills every slot with the same error.
  std::vector<Result<Answer>> SubmitBatch(
      const std::vector<WireRequest>& requests);
  Status RegisterXml(const std::string& doc_key, const std::string& xml);
  Status UpdateDocument(const std::string& doc_key,
                        const xml::SubtreeEdit& edit);
  Status RemoveDocument(const std::string& doc_key);
  Result<std::string> ExportStats(service::StatsFormat format);

 private:
  /// Sends one encoded request payload, reads one frame back, checks the
  /// response type.
  Result<Message> RoundTrip(std::string_view payload, MsgType expected);

  int fd_ = -1;
};

}  // namespace gkx::net

#endif  // GKX_NET_CLIENT_HPP_
