#include "data/dataset_io.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/overlap_index.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace crowd::data {

namespace {

// ResponseMatrix's cells are an int16 vector.
constexpr int kMaxArity = 32767;

struct ResponseRow {
  size_t worker;
  size_t task;
  int response;
};

Result<std::vector<ResponseRow>> ParseResponseRows(const CsvTable& table) {
  CROWD_ASSIGN_OR_RETURN(size_t wcol, table.ColumnIndex("worker"));
  CROWD_ASSIGN_OR_RETURN(size_t tcol, table.ColumnIndex("task"));
  CROWD_ASSIGN_OR_RETURN(size_t rcol, table.ColumnIndex("response"));
  std::vector<ResponseRow> rows;
  rows.reserve(table.rows.size());
  for (size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    CROWD_ASSIGN_OR_RETURN(long long w, ParseInt(row[wcol]));
    CROWD_ASSIGN_OR_RETURN(long long t, ParseInt(row[tcol]));
    CROWD_ASSIGN_OR_RETURN(long long r, ParseInt(row[rcol]));
    if (w < 0 || t < 0 || r < 0) {
      return Status::IoError(
          StrFormat("negative id in responses row %zu", i + 1));
    }
    // The matrix stores int16 cells, so arity (max response + 1) is at
    // most kMaxArity.
    if (r >= kMaxArity) {
      return Status::IoError(StrFormat(
          "response %lld in responses row %zu is above the largest "
          "supported response %d",
          r, i + 1, kMaxArity - 1));
    }
    rows.push_back({static_cast<size_t>(w), static_cast<size_t>(t),
                    static_cast<int>(r)});
  }
  return rows;
}

}  // namespace

Status SaveDatasetCsv(const Dataset& dataset,
                      const std::string& responses_path,
                      const std::string& gold_path) {
  const ResponseMatrix& r = dataset.responses();
  CsvTable responses;
  responses.header = {"worker", "task", "response"};
  for (WorkerId w = 0; w < r.num_workers(); ++w) {
    for (TaskId t = 0; t < r.num_tasks(); ++t) {
      auto resp = r.Get(w, t);
      if (!resp.has_value()) continue;
      responses.rows.push_back({StrFormat("%zu", w), StrFormat("%zu", t),
                                StrFormat("%d", *resp)});
    }
  }
  CROWD_RETURN_NOT_OK(WriteCsvFile(responses, responses_path));

  if (!gold_path.empty()) {
    CsvTable gold;
    gold.header = {"task", "truth"};
    for (TaskId t = 0; t < r.num_tasks(); ++t) {
      auto truth = dataset.Gold(t);
      if (!truth.has_value()) continue;
      gold.rows.push_back({StrFormat("%zu", t), StrFormat("%d", *truth)});
    }
    CROWD_RETURN_NOT_OK(WriteCsvFile(gold, gold_path));
  }
  return Status::OK();
}

Result<Dataset> LoadDatasetCsv(const std::string& name,
                               const std::string& responses_path,
                               const std::string& gold_path,
                               const LoadOptions& options) {
  CROWD_ASSIGN_OR_RETURN(auto table, ReadCsvFile(responses_path));
  CROWD_ASSIGN_OR_RETURN(auto rows, ParseResponseRows(table));
  if (rows.empty()) {
    return Status::IoError("responses file has no data rows: " +
                           responses_path);
  }

  size_t num_workers = options.num_workers;
  size_t num_tasks = options.num_tasks;
  int arity = options.arity;
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResponseRow& row = rows[i];
    // The overlap index counts co-attempted tasks in uint32_t.
    if (row.task >= OverlapIndex::kMaxTasks) {
      return Status::IoError(StrFormat(
          "task id %zu in responses row %zu is above the largest "
          "supported task id %zu",
          row.task, i + 1, OverlapIndex::kMaxTasks - 1));
    }
    num_workers = std::max(num_workers, row.worker + 1);
    num_tasks = std::max(num_tasks, row.task + 1);
    // Both the matrix and the overlap index's m x m pair tables are
    // capped. Dividing rules out a cell count that wraps around size_t.
    if (num_workers > kMaxLoadCells / num_tasks ||
        num_workers > kMaxLoadCells / num_workers) {
      return Status::IoError(StrFormat(
          "responses row %zu makes %zu workers x %zu tasks; the matrix or "
          "the workers' pair table has more than the %zu cells a dataset "
          "may have",
          i + 1, num_workers, num_tasks, kMaxLoadCells));
    }
    if (arity == 0 || options.arity == 0) {
      arity = std::max(arity, row.response + 1);
    }
  }
  arity = std::max(arity, 2);

  ResponseMatrix matrix(num_workers, num_tasks, arity);
  for (const auto& row : rows) {
    auto existing = matrix.Get(row.worker, row.task);
    if (existing.has_value() && *existing != row.response) {
      return Status::IoError(StrFormat(
          "conflicting duplicate response for worker %zu task %zu",
          row.worker, row.task));
    }
    CROWD_RETURN_NOT_OK(
        matrix.Set(row.worker, row.task, row.response));
  }

  Dataset dataset(name, std::move(matrix));

  if (!gold_path.empty()) {
    CROWD_ASSIGN_OR_RETURN(auto gold_table, ReadCsvFile(gold_path));
    CROWD_ASSIGN_OR_RETURN(size_t tcol, gold_table.ColumnIndex("task"));
    CROWD_ASSIGN_OR_RETURN(size_t gcol, gold_table.ColumnIndex("truth"));
    for (size_t i = 0; i < gold_table.rows.size(); ++i) {
      const auto& row = gold_table.rows[i];
      CROWD_ASSIGN_OR_RETURN(long long t, ParseInt(row[tcol]));
      CROWD_ASSIGN_OR_RETURN(long long g, ParseInt(row[gcol]));
      if (t < 0 || g < 0) {
        return Status::IoError("negative id in gold file");
      }
      if (g >= arity) {
        return Status::IoError(
            StrFormat("gold label %lld in gold row %zu outside [0, %d)", g,
                      i + 1, arity));
      }
      CROWD_RETURN_NOT_OK(dataset.SetGold(static_cast<size_t>(t),
                                          static_cast<int>(g)));
    }
  }
  return dataset;
}

}  // namespace crowd::data
