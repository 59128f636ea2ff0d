#include "core/m_worker.h"

#include <utility>

#include "core/incremental.h"
#include "core/three_worker.h"
#include "core/triple_combiner.h"
#include "core/triple_selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace crowd::core {

Result<WorkerAssessment> EvaluateWorker(const data::OverlapIndex& overlap,
                                        data::WorkerId worker,
                                        const BinaryOptions& options) {
  CROWD_SPAN("core.evaluate_worker");
  Stopwatch watch;
  std::vector<WorkerPair> pairs =
      options.pairing == PairingStrategy::kGreedy
          ? GreedyPairs(overlap, worker)
          : RandomPairs(overlap, worker,
                        options.pairing_seed + worker * 7919);
  if (pairs.empty()) {
    return Status::InsufficientData(StrFormat(
        "worker %zu: no peer pair with task overlap exists", worker));
  }
  std::vector<TripleEstimate> triples;
  triples.reserve(pairs.size());
  bool any_clamped = false;
  for (const auto& [j1, j2] : pairs) {
    auto triple = EvaluateTriple(overlap, worker, j1, j2, options);
    if (!triple.ok()) {
      // A triple can fail on degenerate covariance estimates; drop it
      // and continue with the rest (the paper notes failure probability
      // decays exponentially with task count).
      CROWD_LOG_DEBUG << "dropping triple (" << worker << ", " << j1
                      << ", " << j2
                      << "): " << triple.status().ToString();
      if (obs::Registry* r = obs::MetricsRegistry()) {
        static obs::Counter* const dropped = r->GetCounter(
            "crowdeval_core_triples_dropped_total",
            "candidate triples dropped during worker evaluation");
        dropped->Increment();
      }
      continue;
    }
    any_clamped = any_clamped || triple->any_clamped;
    triples.push_back(std::move(*triple));
  }
  if (triples.empty()) {
    return Status::InsufficientData(StrFormat(
        "worker %zu: all candidate triples failed to evaluate", worker));
  }
  CROWD_ASSIGN_OR_RETURN(CombinedEstimate combined,
                         CombineTriples(triples, overlap, options));
  WorkerAssessment out;
  out.worker = worker;
  out.error_rate = combined.p;
  out.deviation = combined.deviation;
  out.num_triples = triples.size();
  out.any_clamped = any_clamped;
  CROWD_ASSIGN_OR_RETURN(
      out.interval, stats::NormalInterval(combined.p, combined.deviation,
                                          options.confidence));
  if (obs::Registry* r = obs::MetricsRegistry()) {
    static obs::HistogramMetric* const latency = r->GetHistogram(
        "crowdeval_core_worker_eval_seconds",
        "wall time of one successful EvaluateWorker call",
        obs::Histogram::LatencyBounds());
    latency->Record(watch.ElapsedSeconds());
  }
  return out;
}

Result<MWorkerResult> MWorkerEvaluate(const data::ResponseMatrix& responses,
                                      const BinaryOptions& options) {
  if (responses.arity() != 2) {
    return Status::Invalid(
        "MWorkerEvaluate supports binary tasks only (use the k-ary "
        "estimator for arity > 2)");
  }
  if (responses.num_workers() < 3) {
    return Status::InsufficientData(StrFormat(
        "MWorkerEvaluate requires at least 3 workers, got %zu",
        responses.num_workers()));
  }
  return IncrementalEvaluator(responses, options).EvaluateAll();
}

}  // namespace crowd::core
