// The central data container: which worker gave which response to
// which task. Tasks are k-ary with responses 0..k-1; a missing entry
// means the worker did not attempt the task (the paper's "non-regular"
// data). Dimensions in this problem domain are small (at most a few
// hundred workers and a few thousand tasks), so storage is a dense
// worker x task array of int16 with a missing sentinel.

#ifndef CROWD_DATA_RESPONSE_MATRIX_H_
#define CROWD_DATA_RESPONSE_MATRIX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "util/logging.h"
#include "util/result.h"

namespace crowd::data {

using WorkerId = size_t;
using TaskId = size_t;
/// A response value in [0, arity).
using Response = int;

/// \brief Worker responses over a task set; entries may be missing.
class ResponseMatrix {
 public:
  /// An empty matrix with the given shape and response arity (>= 2).
  ResponseMatrix(size_t num_workers, size_t num_tasks, int arity);

  /// Takes ownership of num_workers * num_tasks row-major `cells`, each
  /// -1 (missing) or in [0, arity); checks and counts them in one pass.
  static Result<ResponseMatrix> FromCells(size_t num_workers,
                                          size_t num_tasks, int arity,
                                          std::vector<int16_t> cells);

  size_t num_workers() const { return num_workers_; }
  size_t num_tasks() const { return num_tasks_; }
  int arity() const { return arity_; }

  /// Records (or overwrites) worker `w`'s response to task `t`.
  /// Fails when indices are out of range or `r` is outside [0, arity).
  Status Set(WorkerId w, TaskId t, Response r);

  /// Removes worker `w`'s response to task `t` (no-op when absent).
  void Clear(WorkerId w, TaskId t);

  bool Has(WorkerId w, TaskId t) const {
    return At(w, t) != kMissing;
  }

  /// The response, or nullopt when the worker did not attempt the task.
  std::optional<Response> Get(WorkerId w, TaskId t) const {
    int16_t v = At(w, t);
    if (v == kMissing) return std::nullopt;
    return static_cast<Response>(v);
  }

  /// Number of tasks worker `w` attempted.
  size_t WorkerResponseCount(WorkerId w) const;

  /// Number of workers that attempted task `t`.
  size_t TaskResponseCount(TaskId t) const;

  /// Total recorded responses.
  size_t TotalResponses() const { return total_responses_; }

  /// TotalResponses / (workers * tasks).
  double Density() const;

  /// The dense storage, in FromCells's layout.
  const std::vector<int16_t>& cells() const { return cells_; }

  /// A copy restricted to the given workers (re-indexed 0..k-1 in the
  /// order given). Task set and indices are unchanged.
  Result<ResponseMatrix> SelectWorkers(
      const std::vector<WorkerId>& workers) const;

  /// A copy with `fraction` of the present responses removed uniformly
  /// at random, using the caller's `pick` function: pick() must return
  /// a uniform double in [0,1). (Kept free of the RNG type to avoid a
  /// dependency cycle; see sim::RemoveResponses for the ergonomic
  /// wrapper.)
  template <typename PickFn>
  ResponseMatrix Thinned(double fraction, PickFn&& pick) const {
    ResponseMatrix out = *this;
    for (WorkerId w = 0; w < num_workers_; ++w) {
      for (TaskId t = 0; t < num_tasks_; ++t) {
        if (out.Has(w, t) && pick() < fraction) out.Clear(w, t);
      }
    }
    return out;
  }

 private:
  static constexpr int16_t kMissing = -1;

  int16_t At(WorkerId w, TaskId t) const {
    CROWD_DCHECK(w < num_workers_ && t < num_tasks_);
    return cells_[w * num_tasks_ + t];
  }
  int16_t& At(WorkerId w, TaskId t) {
    CROWD_DCHECK(w < num_workers_ && t < num_tasks_);
    return cells_[w * num_tasks_ + t];
  }

  size_t num_workers_;
  size_t num_tasks_;
  int arity_;
  size_t total_responses_ = 0;
  std::vector<int16_t> cells_;
};

}  // namespace crowd::data

#endif  // CROWD_DATA_RESPONSE_MATRIX_H_
