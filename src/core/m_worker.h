// Algorithm A2: the m-worker binary non-regular estimator. For each
// worker, peers are paired greedily (Section III-C1), each pair forms
// a triple evaluated by the 3-worker kernel, and the per-triple
// estimates are combined with Lemma 4/5 into one confidence interval.

#ifndef CROWD_CORE_M_WORKER_H_
#define CROWD_CORE_M_WORKER_H_

#include "core/evaluate_pool.h"
#include "core/types.h"
#include "data/overlap_index.h"
#include "util/result.h"

namespace crowd::core {

/// \brief Evaluation of one worker from shared overlap statistics.
/// Fails with InsufficientData when no valid triple can be formed for
/// the worker.
Result<WorkerAssessment> EvaluateWorker(const data::OverlapIndex& overlap,
                                        data::WorkerId worker,
                                        const BinaryOptions& options);

/// \brief Result of evaluating a whole binary worker pool.
using MWorkerResult = PoolResult<WorkerAssessment>;

/// \brief Evaluates every worker of a binary (possibly non-regular)
/// dataset. Requires at least 3 workers. This is an
/// IncrementalEvaluator built in bulk from `responses`, with every
/// worker stale, so batch and streaming evaluation share one path.
Result<MWorkerResult> MWorkerEvaluate(const data::ResponseMatrix& responses,
                                      const BinaryOptions& options);

}  // namespace crowd::core

#endif  // CROWD_CORE_M_WORKER_H_
