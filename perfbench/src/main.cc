// perfbench: one benchmark command for crowdeval.
//
//   perfbench --workload ingest|mixed|batch_binary|batch_kary
//             --seed N --seconds S --trace 0|1
//             --daemon path/to/crowdevald
//
// Prints an `info {...}` line of diagnostic readings, then, as the last
// line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}: the
// end-to-end metrics with --trace 0, the per-layer metrics of the traced
// run with --trace 1. Exits 2 without a result line on a setup error.

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "bench.h"

namespace {

std::string SelfPath() {
  char buffer[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) perfbench::Die("cannot resolve /proc/self/exe");
  return std::string(buffer, static_cast<size_t>(n));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::strcmp(argv[1], "--batch-child") == 0) {
    return BatchChildMain(argc, argv);
  }
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--daemon") {
      options.daemon = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (options.seconds <= 0) Die("--seconds must be positive");
  if (::access(options.daemon.c_str(), X_OK) != 0) {
    Die("--daemon must name the crowdevald binary");
  }
  options.self = SelfPath();

  using Run = void (*)(const Options&, Report*, Tally*);
  const std::pair<const char*, Run> workloads[] = {
      {"ingest", RunIngest},
      {"mixed", RunMixed},
      {"batch_binary", RunBatchBinary},
      {"batch_kary", RunBatchKary},
  };
  Run run = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (options.workload == name) run = fn;
  }
  if (run == nullptr) Die("unknown workload '" + options.workload + "'");

  Report report;
  Tally tally;
  (options.trace ? RunTraced : run)(options, &report, &tally);
  KillChildren();
  report.Print(tally);
  return 0;
}
