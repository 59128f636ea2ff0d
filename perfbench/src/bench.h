// Entry points of the four workloads and the traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the crowdevald binary built from this checkout.
  std::string daemon;
  /// Path of this binary, re-executed for batch child processes.
  std::string self;
};

// Shapes of the workloads (see README.md for why each exists).
inline constexpr size_t kIngestWorkers = 100;
inline constexpr size_t kIngestTasks = 20000;
inline constexpr size_t kMixedWorkers = 50;
inline constexpr size_t kMixedMinTasks = 8000;
inline constexpr double kStreamDensity = 0.3;
inline constexpr double kMixedRespPerS = 2500.0;
inline constexpr double kMixedEvalPerS = 100.0;
inline constexpr double kMixedEvalAllPeriodS = 0.25;
inline constexpr size_t kBatchBinaryWorkers = 200;
inline constexpr size_t kBatchBinaryTasks = 2000;
inline constexpr double kBatchBinaryDensity = 0.3;
inline constexpr size_t kBatchKaryWorkers = 20;
inline constexpr size_t kBatchKaryTasks = 1000;
inline constexpr double kBatchKaryDensity = 0.8;
inline constexpr int kMinBatchReps = 10;

/// Tasks of the mixed crowd: enough unseeded half to feed the writers
/// for the whole run with a 20% margin.
size_t MixedTasks(double seconds);

void RunIngest(const Options& options, Report* report, Tally* tally);
void RunMixed(const Options& options, Report* report, Tally* tally);
void RunBatchBinary(const Options& options, Report* report, Tally* tally);
void RunBatchKary(const Options& options, Report* report, Tally* tally);
void RunTraced(const Options& options, Report* report, Tally* tally);

/// The re-executed batch child: loads the CSV and evaluates until the
/// deadline, printing one line per repetition.
int BatchChildMain(int argc, char** argv);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
