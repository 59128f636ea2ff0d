// The batch workloads, `batch_binary` and `batch_kary`. The parent
// simulates the crowd, writes it as CSV and computes the reference
// output in-process; a re-executed child process (so its peak RSS is
// that of loading and evaluating alone) repeats load + evaluate +
// serialise until the deadline and checks every repetition against the
// reference.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/evaluator.h"
#include "core/incremental.h"
#include "core/kary_m_worker.h"
#include "crowds.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) Die("cannot write " + path);
}

void SaveCsv(const crowd::data::ResponseMatrix& m, const std::string& path) {
  crowd::data::Dataset dataset("perfbench", m);
  auto st = crowd::data::SaveDatasetCsv(dataset, path);
  if (!st.ok()) Die("SaveDatasetCsv: " + st.ToString());
}

struct ChildResult {
  std::vector<double> load_s, batch_s;
  std::vector<std::string> digests;
  int mismatches = 0;
  double rss_mb = -1.0;
};

/// Runs the child and parses its report lines.
ChildResult RunChild(const Options& options, const std::string& kind,
                     const std::string& csv, const std::string& reference,
                     size_t workers, size_t tasks) {
  std::vector<std::string> args = {
      options.self,        "--batch-child",
      kind,                csv,
      reference,           std::to_string(workers),
      std::to_string(tasks), std::to_string(options.seconds)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = -1;
  const int err =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (err != 0) Die("cannot spawn the batch child");
  RegisterChild(pid);
  ::close(fds[1]);
  std::string text;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fds[0], chunk, sizeof(chunk))) > 0) {
    text.append(chunk, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  ForgetChild(pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("batch child failed with status " + std::to_string(status));
  }
  ChildResult r;
  std::istringstream lines(text);
  std::string tag;
  while (lines >> tag) {
    if (tag == "rep") {
      double load = 0, batch = 0;
      std::string digest;
      int match = 0;
      lines >> load >> batch >> digest >> match;
      r.load_s.push_back(load);
      r.batch_s.push_back(batch);
      r.digests.push_back(digest);
      if (match != 1) ++r.mismatches;
    } else if (tag == "rss") {
      lines >> r.rss_mb;
    }
  }
  return r;
}

void ReportBatch(const ChildResult& r, size_t cells, Report* report,
                 Tally* tally) {
  tally->Attempt(r.batch_s.size());
  if (r.mismatches > 0) {
    tally->Fail("repetitions differing from the reference", r.mismatches);
  }
  report->Check("batch_min_repetitions",
                r.batch_s.size() >= static_cast<size_t>(kMinBatchReps));
  const double batch = Median(r.batch_s);
  report->Metric("setup_s", Median(r.load_s), "s");
  // Throughput is total work over total time.
  report->Metric("ops_per_s",
                 static_cast<double>(cells * r.batch_s.size()) / Sum(r.batch_s),
                 "1/s");
  report->Metric("op_p50_us", batch * 1e6, "us");
  report->Metric("peak_rss_mb", r.rss_mb, "MB");
  report->Info("batch_s", batch);
  report->Info("batch_s.min", Quantile(r.batch_s, 0.0));
  report->Info("batch_s.p25", Quantile(r.batch_s, 0.25));
  report->Info("batch_s.p75", Quantile(r.batch_s, 0.75));
  report->Info("batch_s.p90", Quantile(r.batch_s, 0.9));
  report->Info("batch_s.max", Quantile(r.batch_s, 1.0));
  report->Info("repetitions", static_cast<double>(r.batch_s.size()));
  report->Info("cells", static_cast<double>(cells));
  if (!r.digests.empty()) report->InfoText("digest.output", r.digests[0]);
}

}  // namespace

void RunBatchBinary(const Options& options, Report* report, Tally* tally) {
  const std::string run_dir = MakeRunDir("batch_binary");
  BinaryCrowd crowd = MakeBinaryCrowd(kBatchBinaryWorkers, kBatchBinaryTasks,
                                      kBatchBinaryDensity, options.seed);
  const std::string csv = run_dir + "/responses.csv";
  SaveCsv(crowd.matrix, csv);
  // Reference: the streaming evaluator over the same cells.
  crowd::core::IncrementalEvaluator incremental(kBatchBinaryWorkers,
                                                kBatchBinaryTasks);
  for (const Cell& c : CellsInTaskOrder(crowd.matrix, 0, kBatchBinaryTasks, 0,
                                        kBatchBinaryWorkers)) {
    incremental.AddResponse(c.worker, c.task, c.value).AbortIfNotOk();
  }
  const crowd::core::MWorkerResult reference = incremental.EvaluateAll();
  const std::string reference_path = run_dir + "/reference.json";
  WriteFile(reference_path, crowd::server::MWorkerResultBodyJson(reference));

  report->Info("host.calib_ms.start", CalibrationMs());
  ChildResult r = RunChild(options, "binary", csv, reference_path,
                           kBatchBinaryWorkers, kBatchBinaryTasks);
  report->Info("host.calib_ms.end", CalibrationMs());
  ReportBatch(r, crowd.matrix.TotalResponses(), report, tally);
  report->Info("ci_coverage_gap",
               BinaryCoverageGap(reference.assessments,
                                 crowd.true_error_rates, 0.95));
  report->Check("triples_match_pool",
                TriplesMatchPool(reference.assessments, kBatchBinaryWorkers));
  RemoveTree(run_dir);
}

void RunBatchKary(const Options& options, Report* report, Tally* tally) {
  const std::string run_dir = MakeRunDir("batch_kary");
  KaryCrowd crowd = MakeKaryCrowd(kBatchKaryWorkers, kBatchKaryTasks,
                                  kBatchKaryDensity, options.seed);
  const std::string csv = run_dir + "/responses.csv";
  SaveCsv(crowd.matrix, csv);
  const crowd::core::KaryMWorkerResult reference =
      crowd::core::KaryEvaluateAllWorkers(crowd.matrix, {});
  const std::string reference_path = run_dir + "/reference.json";
  WriteFile(reference_path, KaryResultBodyJson(reference));

  report->Info("host.calib_ms.start", CalibrationMs());
  ChildResult r = RunChild(options, "kary", csv, reference_path,
                           kBatchKaryWorkers, kBatchKaryTasks);
  report->Info("host.calib_ms.end", CalibrationMs());
  ReportBatch(r, crowd.matrix.TotalResponses(), report, tally);
  report->Info("ci_coverage_gap",
               KaryCoverageGap(reference.assessments, crowd.true_matrices,
                               0.95));
  report->Info("kary.failed_workers",
               static_cast<double>(reference.failures.size()));
  RemoveTree(run_dir);
}

int BatchChildMain(int argc, char** argv) {
  if (argc != 8) {
    std::fprintf(stderr, "usage: --batch-child kind csv reference workers "
                         "tasks seconds\n");
    return 2;
  }
  const std::string kind = argv[2];
  const std::string csv = argv[3];
  const std::string reference = ReadFile(argv[4]);
  crowd::data::LoadOptions load;
  load.arity = kind == "kary" ? 3 : 2;
  load.num_workers = std::strtoull(argv[5], nullptr, 10);
  load.num_tasks = std::strtoull(argv[6], nullptr, 10);
  const double seconds = std::strtod(argv[7], nullptr);

  const crowd::core::CrowdEvaluator evaluator;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;
       rep < kMinBatchReps || SecondsSince(start) < seconds; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto dataset = crowd::data::LoadDatasetCsv("perfbench", csv, "", load);
    if (!dataset.ok()) {
      std::fprintf(stderr, "load: %s\n", dataset.status().ToString().c_str());
      return 1;
    }
    const Clock::time_point t1 = Clock::now();
    std::string output, body;
    double batch_s = 0.0;
    if (kind == "kary") {
      output = KaryResultBodyJson(
          crowd::core::KaryEvaluateAllWorkers(dataset->responses(), {}));
      batch_s = SecondsSince(t1);
      body = output;
    } else {
      auto result = evaluator.EvaluateBinary(dataset->responses());
      if (!result.ok()) {
        std::fprintf(stderr, "evaluate: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      output = crowd::server::BinaryReportJson(*result);
      batch_s = SecondsSince(t1);
      body = crowd::server::MWorkerResultBodyJson(
          crowd::core::MWorkerResult{result->assessments, result->failures});
    }
    std::printf("rep %.9f %.9f %s %d\n", SecondsBetween(t0, t1), batch_s,
                Hex(Fnv1a(output)).c_str(), body == reference ? 1 : 0);
  }
  std::printf("rss %.6f\n", PeakRssMb(getpid()));
  return 0;
}

}  // namespace perfbench
