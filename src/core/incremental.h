// Incremental worker evaluation — the extension the paper's conclusion
// describes: "our methods ... can be easily modified to be
// incremental, to keep efficiently updating worker error rates as more
// tasks get done."
//
// IncrementalEvaluator owns the growing response set and keeps the
// pairwise agreement statistics up to date in O(m) per response.
// Assessments are computed on demand from the current statistics and
// memoized; a new response invalidates only the workers whose
// evaluation can actually observe the changed statistics (see
// MarkTaskDirty), tracked by a per-worker dirty epoch.
//
// Every evaluation is one Pass in three steps: Capture records each
// requested worker's dirty epoch and copies out the fresh cached
// assessments; Run evaluates the stale workers against an overlap
// index; Commit installs each result whose worker was not dirtied in
// between. Capture and Commit must be serialized with AddResponse; Run
// reads only the pass and the options, so a caller holding a lock
// (server::Service) can run it without the lock on a private copy of
// the index, while single-owner callers run all three steps on the
// live index.
//
// It is also the one way binary evaluator state is built: a whole
// matrix is indexed in bulk by the bitset constructor with every
// worker stale, so batch evaluation (MWorkerEvaluate), recovery (the
// snapshot image with the journal tail folded in) and streaming all
// run through this class, and batch and streaming agree by
// construction. Bulk and per-cell builds give the same (integer)
// counts.

#ifndef CROWD_CORE_INCREMENTAL_H_
#define CROWD_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/m_worker.h"
#include "core/types.h"
#include "data/overlap_index.h"
#include "data/response_matrix.h"
#include "util/result.h"

namespace crowd::core {

/// \brief Streaming evaluation over a fixed worker/task universe.
class IncrementalEvaluator {
 public:
  /// Takes over a binary (arity 2) `responses` matrix, indexes it in
  /// bulk and leaves every worker stale. Further responses may arrive
  /// for any cell, in any order.
  explicit IncrementalEvaluator(data::ResponseMatrix responses,
                                BinaryOptions options = {});

  /// A fixed pool of `num_workers` workers over `num_tasks` binary
  /// tasks with no responses yet.
  IncrementalEvaluator(size_t num_workers, size_t num_tasks,
                       BinaryOptions options = {});

  // Non-copyable/movable: the internal overlap index refers to the
  // owned response matrix.
  IncrementalEvaluator(const IncrementalEvaluator&) = delete;
  IncrementalEvaluator& operator=(const IncrementalEvaluator&) = delete;
  virtual ~IncrementalEvaluator() = default;

  /// Records worker `w`'s response to task `t` (overwriting any
  /// previous response). O(m). Untrusted input is fully validated
  /// before any state changes: an out-of-range worker/task id or a
  /// response outside [0, arity) returns Status::Invalid naming the
  /// offending value, and the evaluator is left untouched. On success
  /// `*changed` (when non-null) is set to whether the cell really
  /// changed: false for an identical re-submission.
  Status AddResponse(data::WorkerId w, data::TaskId t,
                     data::Response response, bool* changed = nullptr);

  /// Number of responses recorded so far.
  size_t TotalResponses() const { return responses_.TotalResponses(); }

  const data::ResponseMatrix& responses() const { return responses_; }

  /// Current agreement statistics (kept incrementally).
  const data::OverlapIndex& overlap() const { return overlap_; }

  /// \brief Evaluates one worker on the data so far. Returns the
  /// memoized assessment when no statistic relevant to the worker
  /// changed since the last call.
  Result<WorkerAssessment> Evaluate(data::WorkerId worker);

  /// \brief Evaluates all workers (memoized per worker). Only stale
  /// workers are re-evaluated, in parallel when `options.num_threads
  /// != 1`; the result is bit-identical for every thread count. A
  /// worker whose evaluation throws is reported as an Internal failure
  /// and stays stale (see core/evaluate_pool.h).
  MWorkerResult EvaluateAll();

  /// \brief One evaluation of the workers [first, first +
  /// results.size()) as of its Capture (see the file comment).
  struct Pass {
    data::WorkerId first = 0;
    /// Per requested worker: the cached assessment when it was fresh
    /// at capture, otherwise empty until Run fills it. A slot whose
    /// evaluation threw stays empty.
    std::vector<std::optional<Result<WorkerAssessment>>> results;
    /// The workers stale at capture, ascending, with their dirty
    /// epochs at capture.
    std::vector<std::pair<data::WorkerId, uint64_t>> stale;
    /// The index Run evaluates against: the live one, or `copy`.
    /// Null when no worker is stale.
    const data::OverlapIndex* overlap = nullptr;
    std::unique_ptr<const data::OverlapIndex> copy;
  };

  /// Where a pass's stale workers are evaluated: on the live index
  /// (the caller applies no response before Commit), or on a private
  /// copy taken at capture (responses may be applied while Run runs).
  enum class IndexView { kLive, kCopy };

  /// \brief Capture for `worker` alone; Invalid for an out-of-range
  /// id. The index is copied only when the worker is stale.
  Result<Pass> Capture(data::WorkerId worker, IndexView view) const;
  /// \brief Capture for every worker; the index is copied only when
  /// at least one worker is stale.
  Pass CaptureAll(IndexView view) const;

  /// \brief Run for a Capture(worker) pass. A throwing evaluation
  /// propagates and leaves the slot empty.
  Result<WorkerAssessment> Run(Pass* pass) const;
  /// \brief Run for a CaptureAll pass, through EvaluatePool: stale
  /// workers in parallel when `options.num_threads != 1`, a throw
  /// reported as that worker's Internal failure.
  MWorkerResult RunAll(Pass* pass) const;

  /// \brief Caches each result of `pass` whose worker no response
  /// dirtied since the capture (its dirty epoch still equals the
  /// captured one) and whose evaluation did not throw. An out-of-date
  /// result is dropped, so it cannot evict a fresher entry that a
  /// later pass committed first.
  void Commit(Pass pass);

  /// \brief Workers whose cached assessment is stale (or missing).
  size_t DirtyWorkerCount() const;

  /// \brief Whether `worker`'s memoized assessment is fresh, i.e. a
  /// subsequent Evaluate would be a pure cache hit. False for
  /// out-of-range ids.
  bool IsCached(data::WorkerId worker) const {
    return worker < cache_.size() && !IsStale(worker);
  }

 protected:
  /// One evaluation of `worker` on `overlap`, bypassing the cache.
  /// On a kCopy pass it may run concurrently with AddResponse, so it
  /// may read only `overlap` and the options. Virtual only so that
  /// tests can inject a failing or blocking evaluation.
  virtual Result<WorkerAssessment> EvaluateUncached(
      const data::OverlapIndex& overlap, data::WorkerId worker) const;

 private:
  void MarkTaskDirty(data::TaskId t, data::WorkerId responder);

  /// Capture for the workers [first, first + count).
  Pass CaptureRange(data::WorkerId first, size_t count,
                    IndexView view) const;

  /// Slot `i` of `pass`, evaluated first if it is empty (stale at
  /// capture). A throw leaves the slot empty.
  const Result<WorkerAssessment>& FillSlot(Pass* pass, size_t i) const;

  bool IsStale(data::WorkerId worker) const {
    return !cache_[worker].has_value() ||
           cached_epoch_[worker] != dirty_epoch_[worker];
  }

  BinaryOptions options_;
  data::ResponseMatrix responses_;
  data::OverlapIndex overlap_;

  // Memoization: a worker's cache entry is valid while its
  // cached_epoch matches its dirty_epoch. A response by worker w to
  // task t only changes statistics of pairs/triples joining w with
  // co-attempters of t, so MarkTaskDirty invalidates the responder,
  // the co-attempters, and the workers that can read one of those
  // changed pair statistics through their peers — not every worker
  // that merely shares some task with w.
  std::vector<uint64_t> dirty_epoch_;
  std::vector<uint64_t> cached_epoch_;
  std::vector<std::optional<Result<WorkerAssessment>>> cache_;
  uint64_t epoch_counter_ = 1;
};

}  // namespace crowd::core

#endif  // CROWD_CORE_INCREMENTAL_H_
