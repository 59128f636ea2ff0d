// Dataset serialization. The on-disk format is two CSV files:
//
//   responses: header "worker,task,response", one row per response;
//   gold:      header "task,truth", one row per gold-labeled task.
//
// Worker/task ids are dense 0-based integers. The same format is used
// by the bundled synthetic paper-analogue datasets in data/.

#ifndef CROWD_DATA_DATASET_IO_H_
#define CROWD_DATA_DATASET_IO_H_

#include <cstddef>
#include <string>

#include "data/dataset.h"
#include "util/result.h"

namespace crowd::data {

/// \brief Writes `dataset` to `responses_path` (+ `gold_path` when
/// non-empty; gold rows are emitted only for labeled tasks).
Status SaveDatasetCsv(const Dataset& dataset,
                      const std::string& responses_path,
                      const std::string& gold_path = "");

/// Options for LoadDatasetCsv.
struct LoadOptions {
  /// Response arity. 0 means "infer as max(response)+1 (at least 2)".
  int arity = 0;
  /// Number of workers/tasks; 0 means "infer as max(id)+1".
  size_t num_workers = 0;
  size_t num_tasks = 0;
};

/// The largest matrix LoadDatasetCsv builds: 2^28 cells, 512 MiB of
/// int16 (the bundled datasets have at most a few hundred thousand).
inline constexpr size_t kMaxLoadCells = size_t{1} << 28;

/// \brief Loads a dataset; `gold_path` may be empty (no gold labels).
/// Malformed rows, out-of-range labels and duplicate (worker, task)
/// pairs with conflicting responses produce IoError. So does a row
/// whose ids make the matrix, or the m x m pair table of its m workers,
/// larger than kMaxLoadCells (above 16384 workers), or whose task id is
/// at or above OverlapIndex::kMaxTasks; each is checked row by row,
/// before anything is allocated, and the error names the row.
Result<Dataset> LoadDatasetCsv(const std::string& name,
                               const std::string& responses_path,
                               const std::string& gold_path = "",
                               const LoadOptions& options = {});

}  // namespace crowd::data

#endif  // CROWD_DATA_DATASET_IO_H_
