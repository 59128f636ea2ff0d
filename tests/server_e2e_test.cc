// End-to-end test of the crowdevald daemon: spawns the real binary
// (path injected as CROWDEVALD_BIN by the build), streams >= 10k
// responses over a unix socket, checks EVAL_ALL against an in-process
// batch evaluation bit-for-bit, then SIGKILLs the daemon mid-flight
// and verifies that a restarted daemon recovers the identical state
// from snapshot + journal replay.

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/incremental.h"
#include "gtest/gtest.h"
#include "rng/random.h"
#include "server/protocol.h"

namespace crowd::server {
namespace {

namespace fs = std::filesystem;

// A line-oriented unix-socket client.
class Client {
 public:
  explicit Client(const std::string& path) { Connect(path); }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  // Sends one command line and returns the one-line JSON reply
  // (without the newline).
  std::string RoundTrip(const std::string& command) {
    if (!Send(command)) return "";
    return ReadLine();
  }

  // Sends `bytes` as they are, with no newline appended. Returns false
  // once the daemon has closed the connection; that is no failure.
  bool SendRaw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Returns the next reply line (without the newline).
  std::string ReadLine() {
    for (;;) {
      size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      if (!Fill()) return "";
    }
  }

  // Whether the daemon has closed the connection: recv reads end of
  // stream (or a reset) with nothing left to read.
  bool AtEof() {
    char byte = 0;
    for (;;) {
      ssize_t n = ::recv(fd_, &byte, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      return n == 0 || (n < 0 && errno == ECONNRESET);
    }
  }

  // For METRICS, the one multi-line reply: reads until the line
  // reading exactly `# EOF` and returns everything up to and
  // including it (newlines preserved, final newline stripped).
  std::string RoundTripUntilEof(const std::string& command) {
    if (!Send(command)) return "";
    const std::string terminator = "# EOF\n";
    for (;;) {
      size_t end = buffer_.find(terminator);
      if (end != std::string::npos &&
          (end == 0 || buffer_[end - 1] == '\n')) {
        std::string body = buffer_.substr(0, end + terminator.size() - 1);
        buffer_.erase(0, end + terminator.size());
        return body;
      }
      if (!Fill()) return "";
    }
  }

 private:
  bool Send(const std::string& command) {
    std::string out = command + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "send: " << std::strerror(errno);
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Receives one chunk into the buffer.
  bool Fill() {
    char chunk[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
  }

  void Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << path << ": " << std::strerror(errno);
    // A daemon that never replies fails the test instead of hanging it.
    timeval timeout{60, 0};
    ASSERT_EQ(::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
  }

  int fd_ = -1;
  std::string buffer_;
};

// Spawns `crowdevald serve` and waits until the socket accepts.
pid_t SpawnDaemon(const std::vector<std::string>& extra_args,
                  const std::string& socket_path,
                  const std::string& log_path) {
  std::vector<std::string> args = {CROWDEVALD_BIN, "serve",
                                   "--socket=" + socket_path};
  args.insert(args.end(), extra_args.begin(), extra_args.end());

  pid_t pid = ::fork();
  if (pid == 0) {
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                     0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  EXPECT_GT(pid, 0) << std::strerror(errno);

  // Readiness: poll until a connect succeeds (or the daemon died).
  for (int i = 0; i < 500; ++i) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr));
    ::close(fd);
    if (rc == 0) return pid;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      ADD_FAILURE() << "daemon exited during startup; log: " << log_path;
      return -1;
    }
    ::usleep(20 * 1000);
  }
  ADD_FAILURE() << "daemon never became ready; log: " << log_path;
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

TEST(CrowdevaldE2eTest, StreamCrashRecoverBitIdentical) {
  const std::string dir =
      testing::TempDir() + "/crowdevald_e2e_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/sock";
  const std::string state_dir = dir + "/state";
  const std::string log_path = dir + "/daemon.log";

  constexpr size_t kWorkers = 15;
  constexpr size_t kTasks = 80;
  constexpr size_t kResponses = 10000;
  constexpr size_t kPostSnapshotResponses = 500;

  pid_t pid = SpawnDaemon({"--workers=" + std::to_string(kWorkers),
                           "--tasks=" + std::to_string(kTasks),
                           "--data-dir=" + state_dir, "--threads=2"},
                          socket_path, log_path);
  ASSERT_GT(pid, 0);

  // The daemon's ground truth, mirrored in-process. Bit-identical
  // assessments only need the same response matrix and options
  // (confidence defaults to 0.95 in both; thread count never matters).
  core::BinaryOptions options;
  options.confidence = 0.95;
  core::IncrementalEvaluator mirror(kWorkers, kTasks, options);

  {
    Client client(socket_path);
    Random rng(42);
    for (size_t i = 0; i < kResponses; ++i) {
      auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
      auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      std::string reply = client.RoundTrip(
          "RESP " + std::to_string(w) + " " + std::to_string(t) + " " +
          std::to_string(v));
      ASSERT_EQ(reply.find("{\"ok\":true,\"seq\":"), 0u)
          << "response " << i << ": " << reply;
      ASSERT_TRUE(mirror.AddResponse(w, t, v).ok());
    }

    // EVAL_ALL over the socket must equal the batch evaluation of the
    // same matrix, byte for byte.
    std::string expected =
        "{\"ok\":true," + MWorkerResultBodyJson(mirror.EvaluateAll()) + "}";
    EXPECT_EQ(client.RoundTrip("EVAL_ALL"), expected);

    std::string stats = client.RoundTrip("STATS");
    EXPECT_NE(stats.find("\"ok\":true"), std::string::npos);
    EXPECT_EQ(stats.find("\"responses_ingested\":0"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"eval_all_runs\":1"), std::string::npos)
        << stats;

    // Durability checkpoint, then more traffic that only the journal
    // will cover.
    std::string snap = client.RoundTrip("SNAPSHOT");
    EXPECT_EQ(snap.find("{\"ok\":true,\"snapshot_seq\":"), 0u) << snap;
    for (size_t i = 0; i < kPostSnapshotResponses; ++i) {
      auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
      auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      ASSERT_EQ(client
                    .RoundTrip("RESP " + std::to_string(w) + " " +
                               std::to_string(t) + " " + std::to_string(v))
                    .find("{\"ok\":true"),
                0u);
      ASSERT_TRUE(mirror.AddResponse(w, t, v).ok());
    }
  }

  // Crash hard: no final snapshot, no clean socket shutdown. Every
  // acknowledged response must still be recovered.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Restart on the same data dir; dimensions come from disk.
  pid = SpawnDaemon({"--data-dir=" + state_dir, "--threads=2"},
                    socket_path, log_path);
  ASSERT_GT(pid, 0);
  {
    Client client(socket_path);
    std::string expected =
        "{\"ok\":true," + MWorkerResultBodyJson(mirror.EvaluateAll()) + "}";
    EXPECT_EQ(client.RoundTrip("EVAL_ALL"), expected)
        << "recovered state diverged; daemon log: " << log_path;

    std::string stats = client.RoundTrip("STATS");
    EXPECT_EQ(stats.find("\"recovered_records\":0"), std::string::npos)
        << "journal tail was not replayed: " << stats;
    EXPECT_EQ(stats.find("\"snapshot_seq\":0,"), std::string::npos)
        << "snapshot was not loaded: " << stats;
    EXPECT_EQ(client.RoundTrip("QUIT"), "{\"ok\":true,\"bye\":true}");
  }

  // Clean shutdown: SIGTERM -> exit 0 (after a final snapshot).
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// A client that sends 64 KiB with no newline gets one error naming
// the line limit and is disconnected; the daemon keeps serving new
// connections.
TEST(CrowdevaldE2eTest, OverlongRequestLineClosesOnlyThatConnection) {
  const std::string dir = testing::TempDir() + "/crowdevald_line_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/sock";
  const std::string log_path = dir + "/daemon.log";
  pid_t pid = SpawnDaemon({"--workers=4", "--tasks=8"}, socket_path,
                          log_path);
  ASSERT_GT(pid, 0);
  {
    Client hostile(socket_path);
    // The daemon may close before it has read everything, so a failed
    // send is expected here.
    (void)hostile.SendRaw(std::string(64 * 1024, 'x'));
    const std::string reply = hostile.ReadLine();
    EXPECT_EQ(reply.find("{\"ok\":false,"), 0u) << reply;
    EXPECT_NE(reply.find("exceeds 4096 bytes"), std::string::npos)
        << reply;
    EXPECT_TRUE(hostile.AtEof());
  }
  {
    Client client(socket_path);
    EXPECT_EQ(client.RoundTrip("RESP 0 0 1"), "{\"ok\":true,\"seq\":1}");
    EXPECT_EQ(client.RoundTrip("QUIT"), "{\"ok\":true,\"bye\":true}");
  }
  {
    // Valid lines in the same send as an over-long one are answered
    // first, in order; then comes the error and the close.
    Client client(socket_path);
    (void)client.SendRaw("RESP 1 0 1\nRESP 2 0 1\n" +
                         std::string(5000, 'x') + "\n");
    EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"seq\":2}");
    EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"seq\":3}");
    const std::string reply = client.ReadLine();
    EXPECT_NE(reply.find("exceeds 4096 bytes"), std::string::npos)
        << reply;
    EXPECT_TRUE(client.AtEof());
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// One send of 200 RESPs, a QUIT and more lines: the daemon answers
// the 200 RESPs and the QUIT, in order, closes the connection, and
// runs nothing after the QUIT.
TEST(CrowdevaldE2eTest, PipelinedBurstIsAnsweredInOrderUpToQuit) {
  const std::string dir = testing::TempDir() + "/crowdevald_burst_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/sock";
  const std::string log_path = dir + "/daemon.log";
  pid_t pid = SpawnDaemon({"--workers=20", "--tasks=20"}, socket_path,
                          log_path);
  ASSERT_GT(pid, 0);
  {
    std::string burst;
    for (int i = 0; i < 200; ++i) {
      burst += "RESP " + std::to_string(i % 20) + " " +
               std::to_string(i / 20) + " " + std::to_string(i % 2) + "\n";
    }
    burst += "QUIT\nRESP 19 19 1\nSTATS\n";
    Client client(socket_path);
    ASSERT_TRUE(client.SendRaw(burst));
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(client.ReadLine(),
                "{\"ok\":true,\"seq\":" + std::to_string(i + 1) + "}");
    }
    EXPECT_EQ(client.ReadLine(), "{\"ok\":true,\"bye\":true}");
    EXPECT_TRUE(client.AtEof());
  }
  {
    Client client(socket_path);
    const std::string stats = client.RoundTrip("STATS");
    EXPECT_NE(stats.find("\"last_seq\":200,"), std::string::npos) << stats;
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// The daemon's virtual size in kB, from /proc/<pid>/status.
long VmSizeKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize in /proc/" << pid << "/status";
  return 0;
}

// Each connection runs on its own thread, and an exited thread keeps
// its stack (8 MB of address space by default) until it is joined.
// Connection churn must not accumulate them: 300 connections that
// leaked their thread would add over 2 GB.
TEST(CrowdevaldE2eTest, ConnectionChurnDoesNotGrowVirtualSize) {
  const std::string dir = testing::TempDir() + "/crowdevald_churn_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/sock";
  const std::string log_path = dir + "/daemon.log";
  pid_t pid = SpawnDaemon({"--workers=4", "--tasks=8"}, socket_path,
                          log_path);
  ASSERT_GT(pid, 0);
  {
    Client warmup(socket_path);
    EXPECT_EQ(warmup.RoundTrip("QUIT"), "{\"ok\":true,\"bye\":true}");
    EXPECT_TRUE(warmup.AtEof());
  }
  const long before_kb = VmSizeKb(pid);
  for (int i = 0; i < 300; ++i) {
    Client client(socket_path);
    ASSERT_EQ(client.RoundTrip("QUIT"), "{\"ok\":true,\"bye\":true}")
        << "connection " << i;
    EXPECT_TRUE(client.AtEof());
  }
  const long after_kb = VmSizeKb(pid);
  EXPECT_LT(after_kb - before_kb, 128 * 1024)
      << "VmSize " << before_kb << " kB -> " << after_kb << " kB";
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// Checks one Prometheus exposition line: blank, `# HELP <name> <text>`,
// `# TYPE <name> counter|gauge|histogram`, or `name[{labels}] value`.
// The caller checks that the `# EOF` terminator comes last.
bool IsValidExpositionLine(const std::string& line) {
  if (line.empty()) return true;
  if (line[0] == '#') {
    static const std::regex kComment(
        "# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+|"
        "TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
    return std::regex_match(line, kComment);
  }
  size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0 ||
      space + 1 >= line.size()) {
    return false;
  }
  std::string name = line.substr(0, space);
  std::string value = line.substr(space + 1);
  size_t brace = name.find('{');
  if (brace != std::string::npos && name.back() != '}') return false;
  std::string bare = brace == std::string::npos
                         ? name
                         : name.substr(0, brace);
  for (char c : bare) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != ':') {
      return false;
    }
  }
  if (bare.empty() ||
      std::isdigit(static_cast<unsigned char>(bare[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  (void)std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0' && errno == 0;
}

TEST(CrowdevaldE2eTest, MetricsExpositionAndChromeTrace) {
  const std::string dir = testing::TempDir() + "/crowdevald_metrics_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket_path = dir + "/sock";
  const std::string state_dir = dir + "/state";
  const std::string trace_path = dir + "/trace.json";
  const std::string log_path = dir + "/daemon.log";

  constexpr size_t kWorkers = 10;
  constexpr size_t kTasks = 60;

  // --threads=2: EVAL_ALL evaluates on two threads (the caller and one
  // helper), so the daemon's parallel fan-out runs end to end here.
  pid_t pid = SpawnDaemon(
      {"--workers=" + std::to_string(kWorkers),
       "--tasks=" + std::to_string(kTasks), "--data-dir=" + state_dir,
       "--threads=2", "--trace-out=" + trace_path,
       "--log-format=json"},
      socket_path, log_path);
  ASSERT_GT(pid, 0);

  uint64_t ingested_before = 0;
  {
    Client client(socket_path);
    Random rng(7);
    for (size_t i = 0; i < 2000; ++i) {
      auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
      auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      ASSERT_EQ(client
                    .RoundTrip("RESP " + std::to_string(w) + " " +
                               std::to_string(t) + " " + std::to_string(v))
                    .find("{\"ok\":true"),
                0u);
    }
    client.RoundTrip("EVAL_ALL");
    // SNAPSHOT gives the tracer a snapshot.write span to capture.
    ASSERT_EQ(client.RoundTrip("SNAPSHOT").find("{\"ok\":true"), 0u);

    std::string text = client.RoundTripUntilEof("METRICS");
    ASSERT_FALSE(text.empty());

    // Every line must be well-formed exposition syntax.
    std::set<std::string> families;
    size_t start = 0;
    bool saw_eof = false;
    while (start < text.size()) {
      size_t eol = text.find('\n', start);
      if (eol == std::string::npos) eol = text.size();
      std::string line = text.substr(start, eol - start);
      start = eol + 1;
      EXPECT_FALSE(saw_eof) << "content after # EOF: " << line;
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      EXPECT_TRUE(IsValidExpositionLine(line)) << "bad line: " << line;
      const std::string type_prefix = "# TYPE ";
      if (line.compare(0, type_prefix.size(), type_prefix) == 0) {
        families.insert(
            line.substr(type_prefix.size(),
                        line.find(' ', type_prefix.size()) -
                            type_prefix.size()));
      }
    }
    EXPECT_TRUE(saw_eof);

    // Spans core + server + journal, >= 12 distinct families.
    EXPECT_GE(families.size(), 12u) << text;
    auto has_prefix = [&](const std::string& prefix) {
      for (const std::string& f : families) {
        if (f.compare(0, prefix.size(), prefix) == 0) return true;
      }
      return false;
    };
    EXPECT_TRUE(has_prefix("crowdeval_core_")) << text;
    EXPECT_TRUE(has_prefix("crowdeval_server_")) << text;
    EXPECT_TRUE(has_prefix("crowdeval_journal_")) << text;

    // Counters advance between scrapes.
    auto series_value = [](const std::string& exposition,
                           const std::string& series) -> double {
      size_t pos = exposition.find("\n" + series + " ");
      if (pos == std::string::npos) return -1.0;
      return std::strtod(
          exposition.c_str() + pos + 1 + series.size() + 1, nullptr);
    };
    double before = series_value(
        text, "crowdeval_server_responses_ingested_total");
    EXPECT_GT(before, 0.0) << text;
    ASSERT_EQ(client.RoundTrip("RESP 0 0 1").find("{\"ok\":true"), 0u);
    std::string text2 = client.RoundTripUntilEof("METRICS");
    double after = series_value(
        text2, "crowdeval_server_responses_ingested_total");
    EXPECT_EQ(after, before + 1.0) << text2;
    ingested_before = static_cast<uint64_t>(after);
  }

  // Clean shutdown dumps the chrome trace.
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_GT(ingested_before, 0u);

  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.good()) << trace_path;
  std::stringstream trace_stream;
  trace_stream << trace_file.rdbuf();
  std::string trace = trace_stream.str();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(trace.rfind("]}"), trace.size() - 2) << trace.substr(0, 200);
  // Spans from the durability path and a core pipeline stage.
  EXPECT_NE(trace.find("\"name\":\"journal.append\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"snapshot.write\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"core.evaluate_worker\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace crowd::server
