// crowdeval — command-line front end to the library.
//
//   crowdeval evaluate   --responses=R.csv [--gold=G.csv]
//                        [--confidence=0.95] [--prune-spammers]
//                        [--uniform-weights] [--clamp-singularities]
//                        [--threads=N] [--format=text|json]
//       Binary worker evaluation (Algorithm A2). Prints one line per
//       worker: point estimate, confidence interval, triples used; and
//       when gold labels are given, the gold-proxy error for reference.
//       --threads=N evaluates workers on N threads (0 = one per core;
//       default 1); the output is identical for every thread count.
//       --format=json emits one JSON document in the crowdevald wire
//       schema (src/server/protocol.h) instead of the table, so batch
//       and daemon output are directly comparable.
//
//   crowdeval evaluate-kary --responses=R.csv --workers=a,b,c
//                        [--gold=G.csv] [--confidence=0.95]
//                        [--format=text|json]
//       k-ary response-probability intervals for one worker triple
//       (Algorithm A3). --format=json emits a single JSON document.
//
//   crowdeval spammers   --responses=R.csv [--threshold=0.4]
//       Majority-vote spammer filter (Section III-E2) — lists flagged
//       workers with their proxy error rates.
//
//   crowdeval summary    --responses=R.csv [--gold=G.csv]
//       Dataset shape/density statistics.
//
//   Any command also accepts --metrics: enables the process-wide
//   metric registry and prints a summary table of every counter and
//   latency histogram the run touched (to stderr, after the normal
//   output) — a quick profile of where a batch run spent its time.
//
// CSV formats are documented in src/data/dataset_io.h; the bundled
// datasets in data/ are directly usable.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "data/dataset_io.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "util/string_util.h"

namespace crowd {
namespace {

struct Args {
  std::string command;
  std::string responses;
  std::string gold;
  double confidence = 0.95;
  double threshold = 0.4;
  bool prune_spammers = false;
  bool uniform_weights = false;
  bool clamp_singularities = false;
  size_t threads = 1;
  std::string format = "text";
  bool metrics = false;
  std::vector<size_t> workers;
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::Invalid("no command given");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value_of = [&](std::string_view prefix) -> std::string_view {
      return arg.substr(prefix.size());
    };
    if (StartsWith(arg, "--responses=")) {
      args.responses = value_of("--responses=");
    } else if (StartsWith(arg, "--gold=")) {
      args.gold = value_of("--gold=");
    } else if (StartsWith(arg, "--confidence=")) {
      CROWD_ASSIGN_OR_RETURN(args.confidence,
                             ParseDouble(value_of("--confidence=")));
    } else if (StartsWith(arg, "--threshold=")) {
      CROWD_ASSIGN_OR_RETURN(args.threshold,
                             ParseDouble(value_of("--threshold=")));
    } else if (StartsWith(arg, "--threads=")) {
      CROWD_ASSIGN_OR_RETURN(long long threads,
                             ParseInt(value_of("--threads=")));
      if (threads < 0) return Status::Invalid("negative thread count");
      args.threads = static_cast<size_t>(threads);
    } else if (StartsWith(arg, "--format=")) {
      args.format = value_of("--format=");
      if (args.format != "text" && args.format != "json") {
        return Status::Invalid("--format must be text or json, got " +
                               args.format);
      }
    } else if (arg == "--metrics") {
      args.metrics = true;
    } else if (arg == "--prune-spammers") {
      args.prune_spammers = true;
    } else if (arg == "--uniform-weights") {
      args.uniform_weights = true;
    } else if (arg == "--clamp-singularities") {
      args.clamp_singularities = true;
    } else if (StartsWith(arg, "--workers=")) {
      for (const auto& token :
           Split(std::string(value_of("--workers=")), ',')) {
        CROWD_ASSIGN_OR_RETURN(long long id, ParseInt(token));
        if (id < 0) return Status::Invalid("negative worker id");
        args.workers.push_back(static_cast<size_t>(id));
      }
    } else {
      return Status::Invalid("unknown flag: " + std::string(arg));
    }
  }
  if (args.responses.empty()) {
    return Status::Invalid("--responses=<file> is required");
  }
  return args;
}

int RunEvaluate(const Args& args, const data::Dataset& dataset) {
  core::CrowdEvaluator::Config config;
  config.binary.confidence = args.confidence;
  config.prefilter_spammers = args.prune_spammers;
  config.spammer.threshold = args.threshold;
  config.binary.num_threads = args.threads;
  if (args.uniform_weights) {
    config.binary.weights = core::WeightScheme::kUniform;
  }
  if (args.clamp_singularities) {
    config.binary.singularity = core::SingularityPolicy::kClampInflate;
  }
  auto report =
      core::CrowdEvaluator(config).EvaluateBinary(dataset.responses());
  if (!report.ok()) {
    if (args.format == "json") {
      std::printf("%s\n", server::ErrorJson(report.status()).c_str());
    } else {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   report.status().ToString().c_str());
    }
    return 1;
  }
  if (args.format == "json") {
    std::printf("%s\n", server::BinaryReportJson(*report).c_str());
    return 0;
  }
  if (!report->removed_spammers.empty()) {
    std::printf("# pruned %zu suspected spammers:",
                report->removed_spammers.size());
    for (auto w : report->removed_spammers) std::printf(" w%zu", w);
    std::printf("\n");
  }
  std::printf("%-8s %-9s %-24s %-8s %s\n", "worker", "estimate",
              "interval", "triples",
              dataset.GoldCount() > 0 ? "gold-proxy" : "");
  for (const auto& a : report->assessments) {
    std::string proxy_text;
    if (dataset.GoldCount() > 0) {
      auto proxy = dataset.ProxyErrorRate(a.worker);
      proxy_text =
          proxy.ok() ? StrFormat("%.3f", *proxy) : std::string("-");
    }
    std::printf("w%-7zu %-9.3f %-24s %-8zu %s\n", a.worker, a.error_rate,
                a.interval.ClampTo(0.0, 0.5).ToString().c_str(),
                a.num_triples, proxy_text.c_str());
  }
  for (const auto& [worker, status] : report->failures) {
    std::printf("w%-7zu %s: %s\n", worker,
                status.IsFilteredOut() ? "pruned" : "unevaluable",
                status.message().c_str());
  }
  return 0;
}

int RunEvaluateKary(const Args& args, const data::Dataset& dataset) {
  if (args.workers.size() != 3) {
    std::fprintf(stderr, "evaluate-kary needs --workers=a,b,c\n");
    return 1;
  }
  core::CrowdEvaluator::Config config;
  config.kary.confidence = args.confidence;
  auto result = core::CrowdEvaluator(config).EvaluateKaryTriple(
      dataset.responses(), args.workers[0], args.workers[1],
      args.workers[2]);
  if (!result.ok()) {
    if (args.format == "json") {
      std::printf("%s\n", server::ErrorJson(result.status()).c_str());
    } else {
      std::fprintf(stderr, "evaluation failed: %s\n",
                   result.status().ToString().c_str());
    }
    return 1;
  }
  if (args.format == "json") {
    std::printf("%s\n",
                server::KaryResultJson(*result, args.workers).c_str());
    return 0;
  }
  const int k = dataset.responses().arity();
  for (int idx = 0; idx < 3; ++idx) {
    std::printf("worker %zu:\n", args.workers[idx]);
    for (int r = 0; r < k; ++r) {
      std::printf("  truth=%d:", r);
      for (int c = 0; c < k; ++c) {
        std::printf("  %.3f %s", result->workers[idx].p(r, c),
                    result->workers[idx]
                        .intervals[r][c]
                        .ClampTo(0.0, 1.0)
                        .ToString()
                        .c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("selectivity:");
  for (double s : result->selectivity) std::printf(" %.3f", s);
  std::printf("\n");
  return 0;
}

int RunSpammers(const Args& args, const data::Dataset& dataset) {
  core::SpammerFilterOptions options;
  options.threshold = args.threshold;
  auto filtered = core::FilterSpammers(dataset.responses(), options);
  filtered.status().AbortIfNotOk();
  std::printf("flagged %zu of %zu workers (proxy error > %.2f):\n",
              filtered->removed.size(),
              dataset.responses().num_workers(), args.threshold);
  for (auto w : filtered->removed) {
    std::printf("  w%-5zu proxy %.3f\n", w, filtered->proxy_error[w]);
  }
  return 0;
}

int RunSummary(const Args&, const data::Dataset& dataset) {
  std::printf("%s\n", dataset.Summary().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n(see the header of tools/crowdeval.cc "
                         "for usage)\n",
                 args.status().ToString().c_str());
    return 2;
  }
  int (*run)(const Args&, const data::Dataset&) =
      args->command == "evaluate"        ? RunEvaluate
      : args->command == "evaluate-kary" ? RunEvaluateKary
      : args->command == "spammers"      ? RunSpammers
      : args->command == "summary"       ? RunSummary
                                         : nullptr;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n", args->command.c_str());
    return 2;
  }
  if (args->metrics) obs::EnableMetrics();
  // Input files come from the user: a bad one is a message, not a crash.
  auto dataset = data::LoadDatasetCsv("cli", args->responses, args->gold);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot load the dataset: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const int rc = run(*args, *dataset);
  if (args->metrics) {
    std::fprintf(stderr, "%s",
                 obs::DefaultRegistry().SummaryTable().c_str());
  }
  return rc;
}

}  // namespace
}  // namespace crowd

int main(int argc, char** argv) { return crowd::Main(argc, argv); }
