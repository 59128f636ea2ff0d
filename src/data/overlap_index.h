// Precomputed co-attempt statistics over a ResponseMatrix:
//   c_ij   — tasks attempted by both workers i and j,
//   a_ij   — of those, tasks where their responses agree,
//   c_ijk  — tasks attempted by all of i, j, k (bitset popcount).
// These are the raw ingredients of the agreement rates q_ij and of the
// Lemma 3 / Lemma 4 covariance formulas.
//
// All counts are computed from per-worker bitsets: one attempt mask
// per worker, plus one mask per (worker, response value) pair. Then
//   c_ij  = popcount(A_i & A_j)
//   a_ij  = sum_r popcount(V_i^r & V_j^r)
//   c_ijk = popcount(A_i & A_j & A_k)
// process 64 tasks per word through the AND-popcount kernels of
// util/bitops.h (hardware POPCNT where the CPU has it), replacing the
// per-cell std::optional scan the construction used to run
// (O(m^2 n) cell probes -> O(m^2 (k+1) n/64) word ANDs). The value
// masks V are only needed for the a_ij sums, so they live in the
// constructor alone; the index keeps the attempt masks, the pair
// counts and the agreement rates a_ij / c_ij, which is everything
// evaluation reads.
//
// The rates are stored next to the counts, so evaluation reads one
// double per pair instead of two counts and a division; ApplyResponse
// refreshes the rate of each pair whose counts it changes (one
// division per co-attempter). The counts are uint32_t: a count is at
// most num_tasks, which the constructor bounds by kMaxTasks. Counts
// and rates together take 16 m^2 bytes.
//
// Once built, the index is immutable under evaluation: the estimators
// only call the const accessors, which is what makes the worker-level
// fan-out in core::EvaluatePool safe. ApplyResponse (the
// incremental mode) is the only mutator and must not run concurrently
// with evaluation of the same index. A copy reads neither the matrix
// nor the original, so a caller can evaluate a copy while the
// original keeps taking responses (see IncrementalEvaluator::Pass).

#ifndef CROWD_DATA_OVERLAP_INDEX_H_
#define CROWD_DATA_OVERLAP_INDEX_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "data/response_matrix.h"
#include "util/logging.h"
#include "util/result.h"

namespace crowd::data {

/// \brief Pairwise co-attempt and agreement counts via bitset kernels.
class OverlapIndex {
 public:
  /// The most tasks an index takes: a pair count is at most the task
  /// count and is stored as uint32_t.
  static constexpr size_t kMaxTasks = std::numeric_limits<uint32_t>::max();

  /// CHECK-fails when responses.num_tasks() > kMaxTasks.
  /// LoadDatasetCsv rejects such a shape earlier with an IoError, and
  /// the journal and snapshot headers store the task count as a u32.
  explicit OverlapIndex(const ResponseMatrix& responses);

  size_t num_workers() const { return num_workers_; }

  /// c_ij: number of tasks attempted by both i and j.
  size_t CommonCount(WorkerId i, WorkerId j) const {
    return pair_common_[Index(i, j)];
  }

  /// Number of common tasks with equal responses.
  size_t AgreementCount(WorkerId i, WorkerId j) const {
    return pair_agree_[Index(i, j)];
  }

  /// q_ij estimate = agreements / common tasks; fails when c_ij == 0.
  Result<double> AgreementRate(WorkerId i, WorkerId j) const;

  /// Row i of the stored rates: entry j is
  /// AgreementCount(i, j) / CommonCount(i, j), the same division
  /// AgreementRate returns, or 0 when c_ij == 0. num_workers() entries.
  const double* AgreementRateRow(WorkerId i) const {
    CROWD_DCHECK(i < num_workers_);
    return pair_rate_.data() + i * num_workers_;
  }

  /// c_ijk: number of tasks attempted by all three workers. Each call
  /// ANDs three full rows of ceil(n/64) words, however sparse the
  /// workers are; loops over many (j, k) for one i should use
  /// SharedAttemptRows instead.
  size_t TripleCommonCount(WorkerId i, WorkerId j, WorkerId k) const;

  /// Words per bitset row: ceil(n / 64).
  size_t words_per_worker() const { return words_per_worker_; }

  /// \brief The rows B_p = A_i & A_p, tasks attempted by both i and p,
  /// compacted to i's own tasks: bit r of a row is set when p attempted
  /// the r-th task of i. One row per entry of `peers` (repeats
  /// allowed), written row after row into `rows` (resized to
  /// peers.size() * width). Returns width = ceil(|T_i| / 64), which is
  /// at most words_per_worker(). Then c_{i,a,b} =
  /// util::AndPopcount(B_a, B_b, width): two rows per triple count
  /// instead of three, over i's tasks only.
  size_t SharedAttemptRows(WorkerId i, const std::vector<WorkerId>& peers,
                           std::vector<uint64_t>* rows) const;

  /// Whether worker `w` attempted task `t` (O(1) bit probe).
  bool Attempted(WorkerId w, TaskId t) const {
    CROWD_DCHECK(w < num_workers_ && t < num_tasks_);
    return (attempt_bits_[w * words_per_worker_ + t / 64] >> (t % 64)) &
           uint64_t{1};
  }

  /// \brief Incrementally accounts for worker `w`'s response to task
  /// `t` having just been set in the underlying matrix (call *after*
  /// ResponseMatrix::Set). `previous` is the response the cell held
  /// before, or nullopt when it was missing. O(m) per update — the
  /// incremental-evaluation mode of the paper's conclusion — plus one
  /// division per pair whose counts change.
  Status ApplyResponse(WorkerId w, TaskId t,
                       std::optional<Response> previous);

 private:
  size_t Index(WorkerId i, WorkerId j) const {
    CROWD_DCHECK(i < num_workers_ && j < num_workers_);
    return i * num_workers_ + j;
  }

  /// Stores a_ij / c_ij (0 when c_ij == 0) at (i, j) and (j, i).
  void UpdateRate(WorkerId i, WorkerId j);

  uint64_t* AttemptBits(WorkerId w) {
    return attempt_bits_.data() + w * words_per_worker_;
  }
  const uint64_t* AttemptBits(WorkerId w) const {
    return attempt_bits_.data() + w * words_per_worker_;
  }
  /// The matrix ApplyResponse reads; no const accessor touches it.
  const ResponseMatrix& responses_;
  size_t num_workers_;
  size_t num_tasks_;
  size_t words_per_worker_;
  /// Per-worker attempt bitmask, concatenated.
  std::vector<uint64_t> attempt_bits_;
  std::vector<uint32_t> pair_common_;
  std::vector<uint32_t> pair_agree_;
  /// a_ij / c_ij, or 0 when c_ij == 0; symmetric like the counts.
  std::vector<double> pair_rate_;
};

}  // namespace crowd::data

#endif  // CROWD_DATA_OVERLAP_INDEX_H_
