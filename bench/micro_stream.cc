// Sustained ingest throughput and evaluation latency of the crowdevald
// serving layer, measured against the in-process Service (no sockets),
// so the numbers isolate the evaluator + journal cost from network
// overhead.
//
// Three configurations are timed on the same random response stream:
//   memory    -- no data dir: pure evaluator cost
//   journal   -- write-ahead journal, no fsync (the daemon's default)
//   compact   -- journal + automatic snapshot/compaction every 10k
// For each: sustained RESP throughput, then the latency distribution
// (p50/p99, via obs::Histogram) of single-worker EVAL calls
// interleaved 1:50 with writes, and the latency of full EVAL_ALL
// passes after write bursts.
//
// The whole suite then runs a second time with the process-wide metric
// registry enabled (obs::EnableMetrics) and the per-config ingest
// overhead of the instrumentation is reported — the budget is <3%.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "server/service.h"
#include "util/stopwatch.h"

namespace crowd {
namespace {

constexpr size_t kWorkers = 50;
constexpr size_t kTasks = 2000;
constexpr size_t kStreamResponses = 50000;
constexpr size_t kEvalEvery = 50;  // one EVAL per 50 RESP

struct Config {
  const char* name;
  bool durable;
  uint64_t snapshot_every;
};

int RunConfig(const Config& config, double* ingest_per_second) {
  server::ServiceOptions options;
  options.num_workers = kWorkers;
  options.num_tasks = kTasks;
  if (config.durable) {
    // Prefer tmpfs: ext4 write-back stalls add run-to-run jitter that
    // swamps the CPU costs this benchmark isolates.
    struct stat sb;
    const char* base =
        (stat("/dev/shm", &sb) == 0 && S_ISDIR(sb.st_mode)) ? "/dev/shm"
                                                            : "/tmp";
    options.data_dir =
        std::string(base) + "/crowd_micro_stream_" + config.name;
    std::remove((options.data_dir + "/journal.crwj").c_str());
  }
  options.snapshot_every = config.snapshot_every;
  auto service = server::Service::Open(options);
  if (!service.ok()) {
    std::fprintf(stderr, "open(%s): %s\n", config.name,
                 service.status().ToString().c_str());
    return 1;
  }

  // Phase 1: sustained ingest, interleaved with single-worker EVALs.
  Random rng(7);
  obs::Histogram eval_hist(obs::Histogram::LatencyBounds());
  Stopwatch total;
  double ingest_seconds = 0.0;
  for (size_t i = 0; i < kStreamResponses; ++i) {
    auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
    auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
    auto v = static_cast<data::Response>(rng.UniformInt(2));
    Stopwatch one;
    Status st = (*service)->Ingest(w, t, v);
    ingest_seconds += one.ElapsedSeconds();
    if (!st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return 1;
    }
    if ((i + 1) % kEvalEvery == 0) {
      Stopwatch eval;
      (void)(*service)->Evaluate(w);
      eval_hist.Record(eval.ElapsedSeconds());
    }
  }
  const double wall = total.ElapsedSeconds();

  // Phase 2: EVAL_ALL latency after write bursts of growing staleness.
  obs::Histogram eval_all_hist(obs::Histogram::LatencyBounds());
  for (size_t burst = 0; burst < 20; ++burst) {
    for (size_t i = 0; i < 500; ++i) {
      auto w = static_cast<data::WorkerId>(rng.UniformInt(kWorkers));
      auto t = static_cast<data::TaskId>(rng.UniformInt(kTasks));
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      (void)(*service)->Ingest(w, t, v);
    }
    Stopwatch eval_all;
    (void)(*service)->EvaluateAll();
    eval_all_hist.Record(eval_all.ElapsedSeconds());
  }

  const std::string stats = (*service)->ExecuteLine("STATS");
  const std::string snapshots_key = "\"snapshots_written\":";
  const unsigned long long snapshots = std::strtoull(
      stats.c_str() + stats.find(snapshots_key) + snapshots_key.size(),
      nullptr, 10);
  if (ingest_per_second != nullptr) {
    *ingest_per_second =
        static_cast<double>(kStreamResponses) / ingest_seconds;
  }
  std::printf(
      "%-8s ingest %8.0f resp/s (%5.2f us/resp)  "
      "EVAL p50 %7.1f us p99 %8.1f us  "
      "EVAL_ALL p50 %9.1f us p99 %9.1f us  snapshots %llu\n",
      config.name, static_cast<double>(kStreamResponses) / wall,
      ingest_seconds / static_cast<double>(kStreamResponses) * 1e6,
      eval_hist.Quantile(0.5) * 1e6, eval_hist.Quantile(0.99) * 1e6,
      eval_all_hist.Quantile(0.5) * 1e6,
      eval_all_hist.Quantile(0.99) * 1e6,
      snapshots);
  std::fflush(stdout);
  return 0;
}

int Main() {
  std::printf("streaming service: %zu workers x %zu tasks, %zu-response "
              "stream, 1 EVAL per %zu writes\n",
              kWorkers, kTasks, kStreamResponses, kEvalEvery);
  const Config configs[] = {
      {"memory", false, 0},
      {"journal", true, 0},
      {"compact", true, 10000},
  };
  constexpr size_t kConfigs = sizeof(configs) / sizeof(configs[0]);
  // fsync-heavy configs jitter run to run, so the overhead comparison
  // uses the best rate over kReps interleaved off/on repetitions; a
  // single off-then-on pass confounds metric cost with disk variance.
  constexpr int kReps = 5;
  double rate_off[kConfigs] = {};
  double rate_on[kConfigs] = {};

  for (int rep = 0; rep < kReps; ++rep) {
    std::printf("-- metrics disabled (rep %d/%d) --\n", rep + 1, kReps);
    obs::DisableMetrics();
    for (size_t i = 0; i < kConfigs; ++i) {
      double rate = 0.0;
      int rc = RunConfig(configs[i], &rate);
      if (rc != 0) return rc;
      rate_off[i] = std::max(rate_off[i], rate);
    }
    std::printf("-- metrics enabled (rep %d/%d) --\n", rep + 1, kReps);
    obs::EnableMetrics();
    for (size_t i = 0; i < kConfigs; ++i) {
      double rate = 0.0;
      int rc = RunConfig(configs[i], &rate);
      if (rc != 0) return rc;
      rate_on[i] = std::max(rate_on[i], rate);
    }
  }

  std::printf("metrics ingest overhead, best-of-%d (budget <3%%):", kReps);
  for (size_t i = 0; i < kConfigs; ++i) {
    std::printf("  %s %+.2f%%", configs[i].name,
                (rate_off[i] / rate_on[i] - 1.0) * 100.0);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace crowd

int main() { return crowd::Main(); }
