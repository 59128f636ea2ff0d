// The evaluate-and-merge shape every whole-pool evaluation shares
// (MWorkerEvaluate, KaryEvaluateAllWorkers and
// IncrementalEvaluator::EvaluateAll): evaluate each worker
// independently, possibly on several threads, then merge the
// per-worker outcomes in worker-id order. Each outcome lands in its
// own slot, so the result is bit-identical for every thread count.
//
// Fan-out: the threads live for one call. Workers are claimed from an
// atomic counter by the calling thread and by min(threads, workers) - 1
// helper threads started here and joined before the merge; one thread
// (or at most one worker) starts none. A helper that cannot be started
// (std::system_error) ends the spawning, and the threads already
// running claim its share.
//
// Throw policy: a body that throws for worker w is reported as a
// Status::Internal failure of w naming the exception; every other
// worker is still evaluated.

#ifndef CROWD_CORE_EVALUATE_POOL_H_
#define CROWD_CORE_EVALUATE_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "data/response_matrix.h"
#include "util/result.h"
#include "util/string_util.h"

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
/// the options-level knob: 1 = serial, 0 = one per hardware core, n =
/// n threads in total, the caller included.
template <typename Assessment, typename Evaluate>
PoolResult<Assessment> EvaluatePool(size_t num_workers, size_t num_threads,
                                    const Evaluate& evaluate) {
  std::vector<std::optional<Result<Assessment>>> slots(num_workers);
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t w = next++; w < num_workers; w = next++) {
      try {
        slots[w] = evaluate(w);
      } catch (const std::exception& e) {
        slots[w] = Status::Internal(
            StrFormat("worker %zu: evaluation threw: %s", w, e.what()));
      } catch (...) {
        slots[w] = Status::Internal(
            StrFormat("worker %zu: evaluation threw a non-std exception", w));
      }
    }
  };
  if (num_threads == 0) {
    num_threads = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  }
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < std::min(num_threads, num_workers); ++i) {
    try {
      helpers.emplace_back(drain);
    } catch (const std::system_error&) {
      break;
    }
  }
  drain();
  for (std::thread& helper : helpers) helper.join();

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
