#include "data/response_matrix.h"

#include <utility>

#include "util/string_util.h"

namespace crowd::data {

ResponseMatrix::ResponseMatrix(size_t num_workers, size_t num_tasks,
                               int arity)
    : num_workers_(num_workers),
      num_tasks_(num_tasks),
      arity_(arity),
      cells_(num_workers * num_tasks, kMissing) {
  CROWD_CHECK_GE(arity, 2);
  CROWD_CHECK_LE(arity, 32767);
}

Result<ResponseMatrix> ResponseMatrix::FromCells(
    size_t num_workers, size_t num_tasks, int arity,
    std::vector<int16_t> cells) {
  if (arity < 2 || arity > 32767) {
    return Status::Invalid(StrFormat("arity %d outside [2, 32767]", arity));
  }
  if ((num_tasks != 0 && num_workers > cells.size() / num_tasks) ||
      cells.size() != num_workers * num_tasks) {
    return Status::Invalid("cell count does not match the shape");
  }
  // Branch-free, so the pass vectorizes: v is -1 or in [0, arity)
  // exactly when v + 1 is in [0, arity].
  bool out_of_range = false;
  size_t present = 0;
  for (int16_t v : cells) {
    out_of_range |=
        static_cast<unsigned>(v + 1) > static_cast<unsigned>(arity);
    present += v != kMissing;
  }
  if (out_of_range) {
    return Status::Invalid("cell value outside [0, arity) and not missing");
  }
  ResponseMatrix matrix(0, 0, arity);
  matrix.total_responses_ = present;
  matrix.num_workers_ = num_workers;
  matrix.num_tasks_ = num_tasks;
  matrix.cells_ = std::move(cells);
  return matrix;
}

Status ResponseMatrix::Set(WorkerId w, TaskId t, Response r) {
  if (w >= num_workers_ || t >= num_tasks_) {
    return Status::Invalid(StrFormat(
        "response index (%zu, %zu) out of range (%zu workers, %zu tasks)",
        w, t, num_workers_, num_tasks_));
  }
  if (r < 0 || r >= arity_) {
    return Status::Invalid(
        StrFormat("response %d outside [0, %d)", r, arity_));
  }
  int16_t& cell = At(w, t);
  if (cell == kMissing) ++total_responses_;
  cell = static_cast<int16_t>(r);
  return Status::OK();
}

void ResponseMatrix::Clear(WorkerId w, TaskId t) {
  int16_t& cell = At(w, t);
  if (cell != kMissing) {
    --total_responses_;
    cell = kMissing;
  }
}

size_t ResponseMatrix::WorkerResponseCount(WorkerId w) const {
  size_t count = 0;
  for (TaskId t = 0; t < num_tasks_; ++t) {
    if (Has(w, t)) ++count;
  }
  return count;
}

size_t ResponseMatrix::TaskResponseCount(TaskId t) const {
  size_t count = 0;
  for (WorkerId w = 0; w < num_workers_; ++w) {
    if (Has(w, t)) ++count;
  }
  return count;
}

double ResponseMatrix::Density() const {
  if (num_workers_ == 0 || num_tasks_ == 0) return 0.0;
  return static_cast<double>(total_responses_) /
         (static_cast<double>(num_workers_) *
          static_cast<double>(num_tasks_));
}

Result<ResponseMatrix> ResponseMatrix::SelectWorkers(
    const std::vector<WorkerId>& workers) const {
  std::vector<int16_t> cells;
  cells.reserve(workers.size() * num_tasks_);
  for (WorkerId w : workers) {
    if (w >= num_workers_) {
      return Status::Invalid(StrFormat("worker id %zu out of range", w));
    }
    const int16_t* row = cells_.data() + w * num_tasks_;
    cells.insert(cells.end(), row, row + num_tasks_);
  }
  return FromCells(workers.size(), num_tasks_, arity_, std::move(cells));
}

}  // namespace crowd::data
