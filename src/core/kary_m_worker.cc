#include "core/kary_m_worker.h"

#include <algorithm>
#include <cmath>

#include "core/triple_selection.h"
#include "linalg/matrix_functions.h"
#include "stats/normal.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace crowd::core {

Result<KaryWorkerAssessment> KaryEvaluateWorker(
    const data::ResponseMatrix& responses, data::WorkerId worker,
    const KaryMWorkerOptions& options) {
  data::OverlapIndex overlap(responses);
  return KaryEvaluateWorker(responses, overlap, worker, options);
}

Result<KaryWorkerAssessment> KaryEvaluateWorker(
    const data::ResponseMatrix& responses,
    const data::OverlapIndex& overlap, data::WorkerId worker,
    const KaryMWorkerOptions& options) {
  if (worker >= responses.num_workers()) {
    return Status::Invalid(StrFormat("worker id %zu out of range", worker));
  }
  const int k = responses.arity();
  std::vector<WorkerPair> pairs =
      GreedyPairs(overlap, worker, options.min_pair_overlap);
  if (pairs.empty()) {
    return Status::InsufficientData(StrFormat(
        "worker %zu: no peer pair meets the %zu-task overlap threshold",
        worker, options.min_pair_overlap));
  }
  if (options.max_triples > 0 && pairs.size() > options.max_triples) {
    pairs.resize(options.max_triples);
  }

  CROWD_ASSIGN_OR_RETURN(double z,
                         stats::TwoSidedZ(options.kary.confidence));

  // Per-entry inverse-variance accumulation across triples.
  linalg::Matrix weight_sum(k, k);
  linalg::Matrix weighted_center(k, k);
  size_t used = 0;
  for (const auto& [j1, j2] : pairs) {
    auto triple =
        KaryEvaluate(responses, worker, j1, j2, options.kary);
    if (!triple.ok()) {
      CROWD_LOG_DEBUG << "k-ary triple (" << worker << ", " << j1 << ", "
                      << j2 << ") failed: " << triple.status().ToString();
      continue;
    }
    const KaryWorkerEstimate& est = triple->workers[0];
    bool usable = true;
    for (int r = 0; r < k && usable; ++r) {
      for (int c = 0; c < k && usable; ++c) {
        if (!std::isfinite(est.intervals[r][c].center()) ||
            !std::isfinite(est.intervals[r][c].size())) {
          usable = false;
        }
      }
    }
    if (!usable) continue;
    for (int r = 0; r < k; ++r) {
      for (int c = 0; c < k; ++c) {
        const auto& ci = est.intervals[r][c];
        double dev = ci.size() / (2.0 * z);
        // Floor keeps a zero-deviation entry from absorbing all weight.
        double variance = std::max(dev * dev, 1e-8);
        weight_sum(r, c) += 1.0 / variance;
        weighted_center(r, c) += ci.center() / variance;
      }
    }
    ++used;
  }
  if (used == 0) {
    return Status::InsufficientData(StrFormat(
        "worker %zu: all %zu candidate triples degenerate", worker,
        pairs.size()));
  }

  KaryWorkerAssessment out;
  out.worker = worker;
  out.num_triples = used;
  out.p = linalg::Matrix(k, k);
  out.intervals.assign(k, std::vector<stats::ConfidenceInterval>(k));
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) {
      double center = weighted_center(r, c) / weight_sum(r, c);
      double dev = std::sqrt(1.0 / weight_sum(r, c));
      out.p(r, c) = center;
      out.intervals[r][c].lo = center - z * dev;
      out.intervals[r][c].hi = center + z * dev;
      out.intervals[r][c].confidence = options.kary.confidence;
    }
  }
  linalg::ClampEntries(&out.p, 0.0, 1.0);
  CROWD_RETURN_NOT_OK(linalg::NormalizeRowsToSumOne(&out.p));
  return out;
}

KaryMWorkerResult KaryEvaluateAllWorkers(
    const data::ResponseMatrix& responses,
    const KaryMWorkerOptions& options) {
  // One shared overlap build; per-worker evaluations read it
  // immutably.
  data::OverlapIndex overlap(responses);
  return EvaluatePool<KaryWorkerAssessment>(
      responses.num_workers(), 1, [&](data::WorkerId w) {
        return KaryEvaluateWorker(responses, overlap, w, options);
      });
}

}  // namespace crowd::core
