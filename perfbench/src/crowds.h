// Workload definitions and their inputs. Every input is simulated from
// the run's seed with crowd::sim (the paper's worker pools, iid task
// assignment), so the same seed always yields the same crowd.

#ifndef PERFBENCH_CROWDS_H_
#define PERFBENCH_CROWDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/kary_m_worker.h"
#include "core/m_worker.h"
#include "core/types.h"
#include "data/response_matrix.h"
#include "linalg/matrix.h"

namespace perfbench {

/// One simulated response, in the order the stream posts it.
struct Cell {
  uint32_t worker = 0;
  uint32_t task = 0;
  int value = 0;
};

struct BinaryCrowd {
  crowd::data::ResponseMatrix matrix{1, 1, 2};
  std::vector<double> true_error_rates;
};

struct KaryCrowd {
  crowd::data::ResponseMatrix matrix{1, 1, 3};
  std::vector<crowd::linalg::Matrix> true_matrices;
};

/// Binary crowd: error rates drawn from the paper's pool {0.1,0.2,0.3},
/// each (worker, task) assigned with probability `density`.
BinaryCrowd MakeBinaryCrowd(size_t workers, size_t tasks, double density,
                            uint64_t seed);

/// 3-ary crowd drawn from the paper's nine response matrices.
KaryCrowd MakeKaryCrowd(size_t workers, size_t tasks, double density,
                        uint64_t seed);

/// Cells of tasks [task_begin, task_end) and workers [worker_begin,
/// worker_end), task-major: tasks are posted in order.
std::vector<Cell> CellsInTaskOrder(const crowd::data::ResponseMatrix& m,
                                   size_t task_begin, size_t task_end,
                                   size_t worker_begin, size_t worker_end);

/// Writes a daemon data directory holding tasks [0, snapshot_tasks) as
/// a snapshot and tasks [snapshot_tasks, seeded_tasks) as the journal
/// tail, exactly as a daemon that crashed after that stream would leave
/// it. Returns the number of tail records.
uint64_t WriteSeededDir(const BinaryCrowd& crowd, size_t snapshot_tasks,
                        size_t seeded_tasks, const std::string& dir);

/// |nominal - share of assessed workers whose interval holds the
/// planted error rate|.
double BinaryCoverageGap(
    const std::vector<crowd::core::WorkerAssessment>& assessments,
    const std::vector<double>& truth, double nominal);

/// The same over every entry of every assessed worker's response matrix.
double KaryCoverageGap(
    const std::vector<crowd::core::KaryWorkerAssessment>& assessments,
    const std::vector<crowd::linalg::Matrix>& truth, double nominal);

/// True when the assessments used about (m-1)/2 triples per worker, as
/// a crowd from the paper's pool gives; a uniform-value stream keeps
/// only a few.
bool TriplesMatchPool(
    const std::vector<crowd::core::WorkerAssessment>& assessments,
    size_t num_workers);

/// A k-ary m-worker result as JSON (%.17g doubles), for digests and
/// repetition-identity checks.
std::string KaryResultBodyJson(const crowd::core::KaryMWorkerResult& r);

/// The `RESP w t v` protocol line for a cell, newline-terminated.
std::string RespLine(const Cell& cell);

}  // namespace perfbench

#endif  // PERFBENCH_CROWDS_H_
