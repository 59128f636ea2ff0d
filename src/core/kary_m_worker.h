// m-worker k-ary evaluation (extension): Algorithm A3 is defined for
// one worker triple; real pools have many workers. Mirroring what
// Algorithm A2 does for the binary case, a worker is evaluated in
// several triples (peers paired greedily by overlap) and the per-triple
// response-probability estimates are fused per entry by inverse-
// variance weighting.
//
// Approximation, stated up front: estimates from different triples of
// the same worker are treated as independent. The peer pairs are
// disjoint across triples, but the evaluated worker's responses are
// shared, so the true cross-triple covariance is positive and the
// fused deviation is somewhat optimistic — the binary case resolves
// this exactly via Lemma 4; deriving its k-ary analogue through the
// spectral estimator is open. The property tests bound the effect:
// coverage stays near nominal on simulated pools.

#ifndef CROWD_CORE_KARY_M_WORKER_H_
#define CROWD_CORE_KARY_M_WORKER_H_

#include <vector>

#include "core/evaluate_pool.h"
#include "core/kary_estimator.h"
#include "data/overlap_index.h"
#include "data/response_matrix.h"
#include "util/result.h"

namespace crowd::core {

/// Options for the m-worker k-ary evaluation.
struct KaryMWorkerOptions {
  KaryOptions kary;
  /// Peers sharing fewer tasks than this with the evaluated worker are
  /// not considered (the spectral method needs populated response-
  /// frequency matrices; the paper's own real-data protocol thresholds
  /// triple overlap).
  size_t min_pair_overlap = 20;
  /// Cap on the number of triples per worker (0 = no cap).
  size_t max_triples = 0;
};

/// \brief Fused k-ary assessment of one worker.
struct KaryWorkerAssessment {
  data::WorkerId worker = 0;
  /// Fused response-probability point estimate (row-stochastic).
  linalg::Matrix p;
  /// intervals[r][c]: interval for P(r, c) at the configured
  /// confidence.
  std::vector<std::vector<stats::ConfidenceInterval>> intervals;
  /// Number of triples fused.
  size_t num_triples = 0;
};

/// \brief Evaluates worker `w` of a k-ary dataset against greedily
/// paired peers. Fails with InsufficientData when no valid triple
/// meets the overlap threshold (or all triples degenerate).
Result<KaryWorkerAssessment> KaryEvaluateWorker(
    const data::ResponseMatrix& responses, data::WorkerId worker,
    const KaryMWorkerOptions& options = {});

/// \brief Same, against a prebuilt overlap index of `responses` (used
/// by KaryEvaluateAllWorkers to share one O(m^2 n) build across all
/// workers instead of rebuilding it per worker).
Result<KaryWorkerAssessment> KaryEvaluateWorker(
    const data::ResponseMatrix& responses,
    const data::OverlapIndex& overlap, data::WorkerId worker,
    const KaryMWorkerOptions& options = {});

/// \brief Evaluates every worker; unevaluable workers are reported
/// with their reason.
using KaryMWorkerResult = PoolResult<KaryWorkerAssessment>;
KaryMWorkerResult KaryEvaluateAllWorkers(
    const data::ResponseMatrix& responses,
    const KaryMWorkerOptions& options = {});

}  // namespace crowd::core

#endif  // CROWD_CORE_KARY_M_WORKER_H_
