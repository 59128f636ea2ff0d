#include "common.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields restart after the last ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double CalibrationMs() {
  // A fixed mix of the two kinds of work the evaluator does: a dependent
  // multiply chain (core speed) and popcounts over an L2-resident bitset
  // (shared caches and ports, which a busy sibling thread slows).
  std::vector<uint64_t> bits(16384);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t& b : bits) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    b = x;
  }
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 10'000'000; ++i) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ULL;
    x += static_cast<uint64_t>(i);
  }
  uint64_t ones = 0;
  for (uint64_t pass = 0; pass < 1000; ++pass) {
    for (size_t i = 0; i < bits.size(); ++i) {
      ones += static_cast<uint64_t>(
          std::popcount(bits[i] ^ bits[(i * 7) & (bits.size() - 1)] ^ pass));
    }
  }
  const double ms = SecondsSince(start) * 1e3;
  // Keeps both loops alive; the sum is never 1 in practice.
  if (x + ones == 1) std::fprintf(stderr, "calibration sentinel\n");
  return ms;
}

void Tally::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  Note(why + " (" + std::to_string(n) + ")");
}

void Tally::Note(const std::string& why) {
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& key, double value) {
  info_.push_back({key, JsonNumber(value)});
}

void Report::InfoText(const std::string& key, const std::string& value) {
  info_.push_back({key, "\"" + value + "\""});
}

void Report::Check(const std::string& what, bool ok) {
  InfoText("check." + what, ok ? "pass" : "FAIL");
  if (!ok) {
    std::fprintf(stderr, "perfbench: sanity check failed: %s\n",
                 what.c_str());
    sane_ = false;
  }
}

void Report::Print(const Tally& tally) const {
  std::string info = "{";
  for (size_t i = 0; i < info_.size(); ++i) {
    info += (i == 0 ? "\"" : ",\"") + info_[i].first + "\":" +
            info_[i].second;
  }
  info += "}";
  std::printf("info %s\n", info.c_str());
  for (const std::string& why : tally.reasons()) {
    std::printf("failure %s\n", why.c_str());
  }
  std::string out = "{\"correct\":";
  out += sane_ && tally.failed() == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(tally.attempted());
  out += ",\"failed\":" + std::to_string(tally.failed());
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    out += (i == 0 ? "\"" : ",\"") + name + "\":{\"value\":" +
           JsonNumber(value.first) + ",\"unit\":\"" + value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

namespace {
std::vector<std::string>& RunDirs() {
  static std::vector<std::string> dirs;
  return dirs;
}
}  // namespace

std::string MakeRunDir(const std::string& tag) {
  static int counter = 0;
  const std::string path = ".bench_build/runs/" + tag + "-" +
                           std::to_string(getpid()) + "-" +
                           std::to_string(counter++);
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) Die("cannot create " + path + ": " + ec.message());
  RunDirs().push_back(path);
  return path;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

uint64_t CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) Die("copy " + from + " -> " + to + ": " + ec.message());
  return TreeBytes(to);
}

uint64_t TreeBytes(const std::string& path) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

namespace {
std::mutex g_children_mu;
std::vector<pid_t>& Children() {
  static std::vector<pid_t> children;
  return children;
}
}  // namespace

void RegisterChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  Children().push_back(pid);
}

void ForgetChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  auto& c = Children();
  c.erase(std::remove(c.begin(), c.end(), pid), c.end());
}

void KillChildren() {
  std::vector<pid_t> children;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    children.swap(Children());
  }
  for (pid_t pid : children) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  KillChildren();
  for (const std::string& dir : RunDirs()) RemoveTree(dir);
  std::fflush(stdout);
  std::_Exit(2);
}

}  // namespace perfbench
