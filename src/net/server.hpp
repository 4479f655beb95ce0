// Blocking TCP front-end for a ShardedQueryService: one accept thread plus
// one thread per connection, each running a simple read-frame → dispatch →
// write-frame loop over the gkx::net codec (frame.hpp). The server owns no
// query state — every request is answered by the router it wraps, so the
// wire tier adds framing and sockets, nothing else.
//
// Lifecycle: Start() binds and listens (port 0 picks an ephemeral port,
// readable via port() afterwards); the accept loop joins the threads of
// connections that already closed; Stop() shuts the listener and every live
// connection down and joins all threads. The destructor calls Stop().

#ifndef GKX_NET_SERVER_HPP_
#define GKX_NET_SERVER_HPP_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/status.hpp"
#include "net/frame.hpp"
#include "service/sharded_service.hpp"

namespace gkx::net {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port is available via port() after Start().
    uint16_t port = 0;
    int backlog = 16;
  };

  /// The service must outlive the server.
  Server(service::ShardedQueryService* service, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop. Not restartable.
  Status Start();
  /// Stops accepting, severs every connection, joins all threads. Safe to
  /// call more than once.
  void Stop();

  uint16_t port() const { return port_; }

  /// Pure request → response mapping; transport-independent so the protocol
  /// semantics are testable without sockets (net_codec_test.cpp). Takes the
  /// request by value so its decoded strings move on into the service.
  Message Dispatch(Message request);

 private:
  struct Connection {
    int fd = -1;  // -1 once its thread finished serving (reapable)
    std::thread thread;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  service::ShardedQueryService* service_;
  Options options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace gkx::net

#endif  // GKX_NET_SERVER_HPP_
