#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {

LineClient::LineClient(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) return;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return;
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool LineClient::ReadLine(std::string* line) {
  for (;;) {
    const size_t nl = buffer_.find('\n', begin_);
    if (nl != std::string::npos) {
      line->assign(buffer_, begin_, nl - begin_);
      begin_ = nl + 1;
      if (begin_ == buffer_.size()) {
        buffer_.clear();
        begin_ = 0;
      }
      return true;
    }
    if (begin_ > 0) {
      buffer_.erase(0, begin_);
      begin_ = 0;
    }
    char chunk[65536];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

bool LineClient::Call(std::string_view line_with_newline,
                      std::string* reply) {
  return Send(line_with_newline) && ReadLine(reply);
}

Daemon::Daemon(const std::string& binary, const std::string& data_dir,
               const std::string& socket_path)
    : socket_path_(socket_path) {
  ::unlink(socket_path.c_str());
  const std::string log = data_dir + ".log";
  std::vector<std::string> args = {binary, "serve",
                                   "--socket=" + socket_path,
                                   "--data-dir=" + data_dir};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const Clock::time_point start = Clock::now();
  const int err =
      ::posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) Die("cannot spawn " + binary);
  RegisterChild(pid_);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      ForgetChild(pid_);
      pid_ = -1;
      Die("crowdevald exited during start-up: " +
          ReadFile(log).substr(0, 1000));
    }
    LineClient probe(socket_path);
    if (probe.connected()) {
      if (!probe.Call("STATS\n", &first_stats_)) {
        Die("crowdevald closed the first connection");
      }
      setup_s_ = SecondsSince(start);
      break;
    }
    if (SecondsSince(start) > 60.0) Die("crowdevald did not start in 60 s");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  ForgetChild(pid_);
  pid_ = -1;
  ::unlink(socket_path_.c_str());
}

long long JsonInt(std::string_view json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle);
  if (at == std::string_view::npos) return -1;
  return std::strtoll(json.data() + at + needle.size(), nullptr, 10);
}

}  // namespace perfbench
