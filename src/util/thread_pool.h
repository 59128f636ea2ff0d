// A fixed-size worker pool for index-space parallelism. The evaluators
// are embarrassingly parallel across workers (each worker's evaluation
// reads only the immutable OverlapIndex), so the only primitive needed
// is ParallelFor: run fn(i) over [begin, end) on up to `num_threads`
// threads, with the calling thread participating as one of them.
//
// Determinism contract: ParallelFor makes no ordering promise about
// *when* indices run, so callers that need output identical to the
// serial path must write each index's result into its own slot and
// merge in index order afterwards. core::EvaluatePool
// (core/evaluate_pool.h) does exactly that, and every whole-pool
// evaluation (MWorkerEvaluate, KaryEvaluateAllWorkers,
// IncrementalEvaluator::EvaluateAll) goes through it.

#ifndef CROWD_UTIL_THREAD_POOL_H_
#define CROWD_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace crowd {

/// \brief Fixed pool of worker threads executing index ranges.
class ThreadPool {
 public:
  /// `num_threads` is the *total* concurrency, including the thread
  /// that calls ParallelFor: 1 (or ResolveThreadCount(0) == 1) spawns
  /// no workers and ParallelFor degenerates to a serial loop; 0 means
  /// one thread per hardware core.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (spawned workers + the calling thread).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Maps the options-level knob to a thread count: 0 -> one per
  /// hardware core (at least 1), anything else unchanged.
  static size_t ResolveThreadCount(size_t requested);

  /// \brief Runs fn(i) for every i in [begin, end), distributing
  /// indices over the pool, and blocks until all of them finished.
  ///
  /// `fn` must be safe to call concurrently on distinct indices. Every
  /// index runs exactly once even when some fail; the returned Status
  /// is OK, or the error of the *lowest* failing index (so the result
  /// does not depend on thread scheduling). Exceptions escaping `fn`
  /// are captured and reported as Status::Internal — no exception
  /// crosses the pool boundary. Not reentrant: one ParallelFor at a
  /// time per pool.
  Status ParallelFor(size_t begin, size_t end,
                     const std::function<Status(size_t)>& fn)
      CROWD_EXCLUDES(mu_);

 private:
  void WorkerLoop() CROWD_EXCLUDES(mu_);
  /// Claims and runs indices of the current job until none are left.
  void RunCurrentJob() CROWD_EXCLUDES(mu_);
  /// fn(i) with exceptions converted to Status::Internal.
  static Status RunOne(const std::function<Status(size_t)>& fn, size_t i);

  std::vector<std::thread> workers_;

  util::Mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  uint64_t job_generation_ CROWD_GUARDED_BY(mu_) = 0;
  size_t workers_remaining_ CROWD_GUARDED_BY(mu_) = 0;
  bool shutting_down_ CROWD_GUARDED_BY(mu_) = false;

  // Current-job state. fn/end are written under mu_ before the
  // generation bump that publishes them to the workers; workers read
  // them only after observing the bump under mu_, so the handshake —
  // not a held lock — orders the accesses (hence no CROWD_GUARDED_BY).
  const std::function<Status(size_t)>* job_fn_ = nullptr;
  size_t job_end_ = 0;
  std::atomic<size_t> job_next_{0};
  size_t first_error_index_ CROWD_GUARDED_BY(mu_) = 0;
  Status first_error_ CROWD_GUARDED_BY(mu_);
};

}  // namespace crowd

#endif  // CROWD_UTIL_THREAD_POOL_H_
