// The crowdevald network front end: accepts connections on a
// Unix-domain or loopback TCP socket and speaks the newline-delimited
// protocol of server/protocol.h, one thread per connection. All state
// lives in the shared Service (which synchronizes commands internally);
// the socket layer only frames lines, bounded at 4096 bytes each, hands
// the complete lines of each read to Service::ExecuteBurst and writes
// their replies with one send.

#ifndef CROWD_SERVER_SOCKET_SERVER_H_
#define CROWD_SERVER_SOCKET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "server/service.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace crowd::server {

/// \brief Listener configuration. Exactly one of `unix_path` (when
/// non-empty) or TCP (`host`:`port`) is used; a `port` of 0 binds an
/// ephemeral port, readable from SocketServer::port() after Start().
struct SocketServerOptions {
  std::string unix_path;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool use_tcp = false;
};

/// \brief Accept loop + per-connection protocol pumps.
class SocketServer {
 public:
  SocketServer(Service* service, SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and spawns the accept thread.
  Status Start();
  /// Stops accepting, disconnects every client and joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop() CROWD_EXCLUDES(client_mu_);

  /// The bound TCP port (after Start() with use_tcp).
  uint16_t port() const { return port_; }
  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const { return connections_.load(); }

 private:
  void AcceptLoop() CROWD_EXCLUDES(client_mu_);
  void ServeConnection(int fd) CROWD_EXCLUDES(client_mu_);
  /// Joins the threads of connections that have closed.
  void JoinFinished() CROWD_EXCLUDES(client_mu_);

  Service* service_;
  SocketServerOptions options_;
  /// The service registry's connection series, resolved once.
  obs::Counter* const connections_total_;
  obs::Gauge* const connections_active_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> connections_{0};
  std::thread accept_thread_;

  util::Mutex client_mu_;
  /// Open connections: socket fd -> the thread serving it.
  std::map<int, std::thread> clients_ CROWD_GUARDED_BY(client_mu_);
  /// Threads whose connection has closed, not yet joined.
  std::vector<std::thread> finished_ CROWD_GUARDED_BY(client_mu_);
};

}  // namespace crowd::server

#endif  // CROWD_SERVER_SOCKET_SERVER_H_
