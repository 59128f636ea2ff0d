// The evaluate-and-merge shape every whole-pool evaluation shares
// (MWorkerEvaluate, KaryEvaluateAllWorkers and
// IncrementalEvaluator::EvaluateAll): evaluate each worker
// independently, possibly on several threads, then merge the
// per-worker outcomes in worker-id order. Each outcome lands in its
// own slot, so the result is bit-identical for every thread count.
//
// Throw policy: a body that throws for worker w is reported as a
// Status::Internal failure of w naming the exception; every other
// worker is still evaluated.

#ifndef CROWD_CORE_EVALUATE_POOL_H_
#define CROWD_CORE_EVALUATE_POOL_H_

#include <cstddef>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "data/response_matrix.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace crowd::core {

/// \brief Result of evaluating a whole worker pool.
template <typename Assessment>
struct PoolResult {
  /// Successful assessments, one per evaluable worker, ascending by id.
  std::vector<Assessment> assessments;
  /// Workers that could not be evaluated, ascending by id, with the
  /// reason.
  std::vector<std::pair<data::WorkerId, Status>> failures;
};

/// \brief Evaluates workers [0, num_workers) with `evaluate(w)`, which
/// returns a Result<Assessment> (or a reference to one) and must be
/// safe to call concurrently for distinct workers. `num_threads` is
/// the options-level knob (1 = serial, 0 = one per hardware core).
template <typename Assessment, typename Evaluate>
PoolResult<Assessment> EvaluatePool(size_t num_workers, size_t num_threads,
                                    const Evaluate& evaluate) {
  std::vector<std::optional<Result<Assessment>>> slots(num_workers);
  ThreadPool pool(num_threads);
  // The body catches every throw itself, so ParallelFor cannot fail.
  (void)pool.ParallelFor(0, num_workers, [&](size_t w) {
    try {
      slots[w] = evaluate(w);
    } catch (const std::exception& e) {
      slots[w] = Status::Internal(
          StrFormat("worker %zu: evaluation threw: %s", w, e.what()));
    } catch (...) {
      slots[w] = Status::Internal(
          StrFormat("worker %zu: evaluation threw a non-std exception", w));
    }
    return Status::OK();
  });
  PoolResult<Assessment> out;
  for (data::WorkerId w = 0; w < num_workers; ++w) {
    Result<Assessment>& result = *slots[w];
    if (result.ok()) {
      out.assessments.push_back(std::move(*result));
    } else {
      out.failures.emplace_back(w, result.status());
    }
  }
  return out;
}

}  // namespace crowd::core

#endif  // CROWD_CORE_EVALUATE_POOL_H_
