// Shared helpers of the perfbench driver: clocks, order statistics,
// digests, /proc readings, run directories and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// 64-bit FNV-1a, printed so two builds can be compared for
/// bit-identical assessments without shipping the JSON around.
uint64_t Fnv1a(std::string_view bytes);
std::string Hex(uint64_t value);

/// Peak resident set (VmHWM) of a process, in MB; -1 when unreadable.
double PeakRssMb(pid_t pid);
/// utime + stime of a process, in seconds; -1 when unreadable.
double CpuSeconds(pid_t pid);

/// Wall time of a fixed CPU-bound reference loop, in ms. Reported as
/// host.calib_ms to tell a slow box from a regression; never used to
/// scale a metric.
double CalibrationMs();

/// Failure accounting: operations attempted and failed, with the first
/// few reasons kept for the log.
class Tally {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, uint64_t n = 1);
  /// Keeps a reason for the log without counting a failure.
  void Note(const std::string& why);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Metrics of one run, in insertion order, plus informational values
/// printed on their own line before the result line.
class Report {
 public:
  void Metric(const std::string& name, double value,
              const std::string& unit);
  void Info(const std::string& key, double value);
  void InfoText(const std::string& key, const std::string& value);
  /// A sanity condition of the workload definition; a false one makes
  /// the run incorrect.
  void Check(const std::string& what, bool ok);

  /// Prints the info line and then the result line; the result line
  /// is the last line of standard output.
  void Print(const Tally& tally) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  bool sane_ = true;
};

/// Creates a fresh directory under .bench_build/runs of the working
/// directory and returns its relative path.
std::string MakeRunDir(const std::string& tag);
void RemoveTree(const std::string& path);
/// Copies `from` into a new directory `to`; returns the bytes copied.
uint64_t CopyTree(const std::string& from, const std::string& to);
uint64_t TreeBytes(const std::string& path);
/// The whole file; empty when unreadable.
std::string ReadFile(const std::string& path);

/// Prints to stderr, stops every child this process started and exits
/// with status 2 without printing a result line.
[[noreturn]] void Die(const std::string& message);

/// Children registered here are SIGKILLed and reaped by Die() and at
/// normal exit paths that call KillChildren().
void RegisterChild(pid_t pid);
void ForgetChild(pid_t pid);
void KillChildren();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
