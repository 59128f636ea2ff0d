#include "server/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "server/protocol.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowd::server {

namespace {

/// Longest request line a client may send, newline excluded. A longer
/// line (complete or still buffering) gets one error reply and the
/// connection is closed, so one client cannot grow daemon memory
/// without bound.
constexpr size_t kMaxLineBytes = 4096;

Status Errno(const char* op) {
  return Status::IoError(StrFormat("%s: %s", op, std::strerror(errno)));
}

/// Sends the whole buffer, suppressing SIGPIPE.
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

SocketServer::SocketServer(Service* service, SocketServerOptions options)
    : service_(service),
      options_(std::move(options)),
      connections_total_(service->metrics_registry().GetCounter(
          "crowdeval_server_connections_total",
          "client connections accepted")),
      connections_active_(service->metrics_registry().GetGauge(
          "crowdeval_server_connections_active",
          "currently connected clients")) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (running_.load()) return Status::Invalid("server already started");
  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Errno("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::Invalid("unix socket path too long: " +
                             options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a killed daemon would make bind fail.
    ::unlink(options_.unix_path.c_str());
    // The sockaddr casts below are the POSIX-mandated calling
    // convention for bind/getsockname, not byte parsing.
    if (::bind(listen_fd_,
               reinterpret_cast<sockaddr*>(&addr),  // crowd-lint: allow(raw-byte-read)
               sizeof(addr)) != 0) {
      return Errno("bind");
    }
  } else if (options_.use_tcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Errno("socket");
    int reuse = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                 sizeof(reuse));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::Invalid("bad listen address: " + options_.host);
    }
    if (::bind(listen_fd_,
               reinterpret_cast<sockaddr*>(&addr),  // crowd-lint: allow(raw-byte-read)
               sizeof(addr)) != 0) {
      return Errno("bind");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr*>(&bound),  // crowd-lint: allow(raw-byte-read)
                      &len) != 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  } else {
    return Status::Invalid("no listener configured (unix_path or tcp)");
  }
  if (::listen(listen_fd_, 64) != 0) return Errno("listen");
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  while (running_.load()) {
    // An exited thread keeps its stack mapped until it is joined.
    JoinFinished();
    // Poll with a timeout so Stop() is observed promptly even with no
    // incoming connection to wake the loop.
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (!running_.load()) break;
    if (ready <= 0) continue;
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener closed
    }
    connections_.fetch_add(1);
    connections_total_->Increment();
    util::MutexLock lock(client_mu_);
    clients_.emplace(fd, std::thread([this, fd] { ServeConnection(fd); }));
  }
}

void SocketServer::JoinFinished() {
  std::vector<std::thread> finished;
  {
    util::MutexLock lock(client_mu_);
    finished.swap(finished_);
  }
  for (std::thread& t : finished) t.join();
}

void SocketServer::ServeConnection(int fd) {
  connections_active_->Add(1);
  std::string buffer;
  std::vector<std::string_view> lines;
  std::string replies;
  char chunk[4096];
  bool quit = false;
  while (!quit && running_.load()) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or shutdown() from Stop()
    buffer.append(chunk, static_cast<size_t>(n));
    // Every complete line up to the first over-long one runs as one
    // burst, and its replies go out in one send.
    lines.clear();
    size_t start = 0;
    bool too_long = false;
    for (size_t nl = buffer.find('\n'); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      if (nl - start > kMaxLineBytes) {
        too_long = true;
        break;
      }
      lines.emplace_back(buffer.data() + start, nl - start);
      start = nl + 1;
    }
    replies.clear();
    service_->ExecuteBurst(lines, &replies, &quit);
    too_long = !quit && (too_long || buffer.size() - start > kMaxLineBytes);
    if (too_long) {
      replies += ErrorJson(Status::Invalid(StrFormat(
          "request line exceeds %zu bytes; closing connection",
          kMaxLineBytes)));
      replies += '\n';
    }
    if (!SendAll(fd, replies.data(), replies.size()) || too_long) break;
    buffer.erase(0, start);
  }
  connections_active_->Subtract(1);
  {
    util::MutexLock lock(client_mu_);
    // Stop() may have taken this thread over already; it joins it.
    auto self = clients_.extract(fd);
    if (!self.empty()) finished_.push_back(std::move(self.mapped()));
  }
  // Closed only once out of clients_: accept() may hand the same fd
  // number to the next connection.
  ::close(fd);
}

void SocketServer::Stop() {
  if (!running_.exchange(false)) {
    // Start() may have failed after creating the socket.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // The accept loop reads listen_fd_ and adds clients: close the
  // listener and wake the clients only once the loop has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::map<int, std::thread> clients;
  {
    // Wake blocked recv()s; the connection threads then exit and
    // close their own fds.
    util::MutexLock lock(client_mu_);
    for (auto& [fd, thread] : clients_) ::shutdown(fd, SHUT_RDWR);
    clients.swap(clients_);
  }
  for (auto& [fd, thread] : clients) thread.join();
  JoinFinished();
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
}

}  // namespace crowd::server
