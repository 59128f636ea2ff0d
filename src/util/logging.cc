#include "util/logging.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "util/json.h"

namespace crowd {

namespace {

LogLevel InitialLevel() {
  const char* env = std::getenv("CROWDEVAL_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarning;
  if (std::strcmp(env, "DEBUG") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "INFO") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "WARNING") == 0) return LogLevel::kWarning;
  if (std::strcmp(env, "ERROR") == 0) return LogLevel::kError;
  return LogLevel::kWarning;
}

std::atomic<int>& LevelStore() {
  static std::atomic<int> level{static_cast<int>(InitialLevel())};
  return level;
}

LogFormat InitialFormat() {
  const char* env = std::getenv("CROWDEVAL_LOG_FORMAT");
  if (env != nullptr && std::strcmp(env, "json") == 0) {
    return LogFormat::kJson;
  }
  return LogFormat::kText;
}

std::atomic<int>& FormatStore() {
  static std::atomic<int> format{static_cast<int>(InitialFormat())};
  return format;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

const char* Basename(const char* file) {
  const char* base = std::strrchr(file, '/');
  return base ? base + 1 : file;
}

double WallNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// One write(2) per line so concurrent loggers never interleave
/// mid-line (stderr is unbuffered but fprintf may split long lines).
void EmitLine(const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::write(STDERR_FILENO, line.data() + off, line.size() - off);
    if (n <= 0) return;  // logging must never fail the process
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void SetLogLevel(LogLevel level) {
  LevelStore().store(static_cast<int>(level));
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(LevelStore().load());
}

void SetLogFormat(LogFormat format) {
  FormatStore().store(static_cast<int>(format));
}

LogFormat GetLogFormat() {
  return static_cast<LogFormat>(FormatStore().load());
}

namespace internal {

std::string FormatLogLine(LogFormat format, LogLevel level,
                          const char* file, int line,
                          const std::string& message, double ts_seconds) {
  std::string out;
  if (format == LogFormat::kJson) {
    out += "{\"ts\":";
    json::AppendChars(&out, ts_seconds, std::chars_format::fixed, 6);
    out.append(",\"level\":\"").append(LevelName(level));
    out += "\",\"src\":\"";
    json::AppendEscaped(&out, Basename(file));
    json::Append(&out, ":", line, "\",\"msg\":", json::Quoted{message},
                 "}\n");
  } else {
    out.append("[").append(LevelName(level)).append(" ").append(Basename(file));
    json::Append(&out, ":", line, "] ");
    out.append(message).append("\n");
  }
  return out;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (level_ >= GetLogLevel() || level_ == LogLevel::kFatal) {
    EmitLine(FormatLogLine(GetLogFormat(), level_, file_, line_,
                           stream_.str(), WallNowSeconds()));
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace crowd
