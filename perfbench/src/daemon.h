// The real crowdevald as a child process, and a line client for its
// unix socket.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <string_view>

namespace perfbench {

/// A blocking newline-protocol client over a unix socket.
class LineClient {
 public:
  explicit LineClient(const std::string& socket_path);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Writes every byte; false when the connection is gone.
  bool Send(std::string_view bytes);
  /// Reads one reply line (without '\n'); false on EOF or error.
  bool ReadLine(std::string* line);
  /// Send + ReadLine.
  bool Call(std::string_view line_with_newline, std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t begin_ = 0;
};

/// A crowdevald process serving `data_dir` on `socket_path` with its
/// default settings (--threads=1, no fsync, no auto-snapshot).
class Daemon {
 public:
  /// Spawns the daemon and waits for its first reply. Dies on failure.
  Daemon(const std::string& binary, const std::string& data_dir,
         const std::string& socket_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& socket_path() const { return socket_path_; }
  /// Seconds from spawn to the first reply: snapshot load, journal
  /// tail replay and index rebuild.
  double setup_s() const { return setup_s_; }
  /// The STATS reply read as the first reply.
  const std::string& first_stats() const { return first_stats_; }
  /// SIGKILL + reap.
  void Kill();

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  double setup_s_ = 0.0;
  std::string first_stats_;
};

/// True for an `{"ok":true,...}` reply.
inline bool ReplyOk(std::string_view reply) {
  return reply.substr(0, 10) == "{\"ok\":true";
}

/// Integer field `"key":N` of a JSON reply; -1 when absent.
long long JsonInt(std::string_view json, std::string_view key);

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
