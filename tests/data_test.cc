// Tests for the data module: ResponseMatrix, Dataset (with proxies),
// CSV round trips and the OverlapIndex counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/overlap_index.h"
#include "data/response_matrix.h"
#include "rng/random.h"
#include "util/csv.h"

namespace crowd::data {
namespace {

TEST(ResponseMatrix, SetGetClear) {
  ResponseMatrix m(2, 3, 4);
  EXPECT_EQ(m.arity(), 4);
  EXPECT_FALSE(m.Has(0, 0));
  ASSERT_TRUE(m.Set(0, 0, 2).ok());
  EXPECT_TRUE(m.Has(0, 0));
  EXPECT_EQ(*m.Get(0, 0), 2);
  EXPECT_EQ(m.TotalResponses(), 1u);
  // Overwrite does not double count.
  ASSERT_TRUE(m.Set(0, 0, 3).ok());
  EXPECT_EQ(m.TotalResponses(), 1u);
  EXPECT_EQ(*m.Get(0, 0), 3);
  m.Clear(0, 0);
  EXPECT_FALSE(m.Has(0, 0));
  EXPECT_EQ(m.TotalResponses(), 0u);
  m.Clear(0, 0);  // Idempotent.
  EXPECT_EQ(m.TotalResponses(), 0u);
}

TEST(ResponseMatrix, Validation) {
  ResponseMatrix m(2, 2, 2);
  EXPECT_TRUE(m.Set(2, 0, 0).IsInvalid());
  EXPECT_TRUE(m.Set(0, 2, 0).IsInvalid());
  EXPECT_TRUE(m.Set(0, 0, 2).IsInvalid());
  EXPECT_TRUE(m.Set(0, 0, -1).IsInvalid());
}

TEST(ResponseMatrix, CountsAndDensity) {
  ResponseMatrix m(2, 4, 2);
  m.Set(0, 0, 1).AbortIfNotOk();
  m.Set(0, 1, 0).AbortIfNotOk();
  m.Set(1, 1, 1).AbortIfNotOk();
  EXPECT_EQ(m.WorkerResponseCount(0), 2u);
  EXPECT_EQ(m.WorkerResponseCount(1), 1u);
  EXPECT_EQ(m.TaskResponseCount(1), 2u);
  EXPECT_EQ(m.TaskResponseCount(3), 0u);
  EXPECT_DOUBLE_EQ(m.Density(), 3.0 / 8.0);
}

TEST(ResponseMatrix, FromCellsAcceptsMissingAndEveryValue) {
  constexpr int kArity = 5;
  std::vector<int16_t> cells = {-1, 0, 1, 2, 3, 4};
  auto m = ResponseMatrix::FromCells(2, 3, kArity, cells);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->arity(), kArity);
  EXPECT_FALSE(m->Has(0, 0));
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_EQ(m->Get(i / 3, i % 3), cells[i]) << i;
  }
  EXPECT_EQ(m->TotalResponses(), 5u);
  EXPECT_EQ(m->cells(), cells);
  // The largest arity admits the largest int16 value.
  EXPECT_TRUE(ResponseMatrix::FromCells(1, 2, 32767, {-1, 32766}).ok());
  // Empty shapes hold no cells.
  EXPECT_TRUE(ResponseMatrix::FromCells(0, 4, 2, {}).ok());
  EXPECT_TRUE(ResponseMatrix::FromCells(4, 0, 2, {}).ok());
}

TEST(ResponseMatrix, FromCellsRejectsInvalidInput) {
  EXPECT_TRUE(
      ResponseMatrix::FromCells(1, 2, 3, {0, -2}).status().IsInvalid());
  EXPECT_TRUE(
      ResponseMatrix::FromCells(1, 2, 3, {3, 0}).status().IsInvalid());
  EXPECT_TRUE(ResponseMatrix::FromCells(1, 2, 3, {-32768, 0})
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(
      ResponseMatrix::FromCells(2, 2, 3, {0, 1, 2}).status().IsInvalid());
  EXPECT_TRUE(
      ResponseMatrix::FromCells(1, 2, 3, {0, 1, 2}).status().IsInvalid());
  EXPECT_TRUE(
      ResponseMatrix::FromCells(1, 1, 1, {0}).status().IsInvalid());
  EXPECT_TRUE(
      ResponseMatrix::FromCells(1, 1, 32768, {0}).status().IsInvalid());
  // A shape whose cell count overflows size_t is a mismatch, not a
  // wrapped product that happens to equal the vector's size.
  const size_t half = size_t{1} << (sizeof(size_t) * 4);
  EXPECT_TRUE(
      ResponseMatrix::FromCells(half, half, 2, {}).status().IsInvalid());
}

TEST(ResponseMatrix, FromCellsMatchesMatrixBuiltWithSet) {
  Random rng(23);
  ResponseMatrix built(6, 11, 4);
  for (WorkerId w = 0; w < 6; ++w) {
    for (TaskId t = 0; t < 11; ++t) {
      if (rng.Bernoulli(0.4)) {
        built.Set(w, t, static_cast<int>(rng.UniformInt(4)))
            .AbortIfNotOk();
      }
    }
  }
  auto m = ResponseMatrix::FromCells(6, 11, 4, built.cells());
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->TotalResponses(), built.TotalResponses());
  EXPECT_DOUBLE_EQ(m->Density(), built.Density());
  for (WorkerId w = 0; w < 6; ++w) {
    for (TaskId t = 0; t < 11; ++t) {
      EXPECT_EQ(m->Get(w, t), built.Get(w, t)) << w << "," << t;
    }
  }
  EXPECT_EQ(m->cells(), built.cells());
}

TEST(ResponseMatrix, SelectWorkersReindexes) {
  ResponseMatrix m(3, 2, 2);
  m.Set(2, 0, 1).AbortIfNotOk();
  m.Set(0, 1, 0).AbortIfNotOk();
  auto selected = m.SelectWorkers({2, 0});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->num_workers(), 2u);
  EXPECT_EQ(*selected->Get(0, 0), 1);
  EXPECT_EQ(*selected->Get(1, 1), 0);
  EXPECT_TRUE(m.SelectWorkers({5}).status().IsInvalid());
}

TEST(ResponseMatrix, ThinnedRemovesRequestedFraction) {
  Random rng(3);
  ResponseMatrix m(10, 100, 2);
  for (WorkerId w = 0; w < 10; ++w) {
    for (TaskId t = 0; t < 100; ++t) m.Set(w, t, 0).AbortIfNotOk();
  }
  auto thinned = m.Thinned(0.2, [&]() { return rng.NextDouble(); });
  EXPECT_NEAR(static_cast<double>(thinned.TotalResponses()), 800.0, 60.0);
}

TEST(Dataset, GoldAndProxy) {
  ResponseMatrix m(2, 4, 2);
  // Worker 0: right, right, wrong on gold tasks 0-2.
  m.Set(0, 0, 1).AbortIfNotOk();
  m.Set(0, 1, 0).AbortIfNotOk();
  m.Set(0, 2, 0).AbortIfNotOk();
  // Worker 1 only does non-gold task 3.
  m.Set(1, 3, 1).AbortIfNotOk();
  Dataset dataset("test", std::move(m));
  dataset.SetGold(0, 1).AbortIfNotOk();
  dataset.SetGold(1, 0).AbortIfNotOk();
  dataset.SetGold(2, 1).AbortIfNotOk();
  EXPECT_EQ(dataset.GoldCount(), 3u);
  EXPECT_TRUE(dataset.HasGold(2));
  EXPECT_FALSE(dataset.HasGold(3));
  EXPECT_NEAR(*dataset.ProxyErrorRate(0), 1.0 / 3.0, 1e-12);
  EXPECT_TRUE(dataset.ProxyErrorRate(1).status().IsInsufficientData());
  EXPECT_TRUE(dataset.SetGold(9, 0).IsInvalid());
  EXPECT_TRUE(dataset.SetGold(0, 5).IsInvalid());
}

TEST(Dataset, ProxyResponseMatrix) {
  ResponseMatrix m(1, 6, 3);
  // Truth 0 tasks: responses 0, 1. Truth 1 tasks: 1, 1. Truth 2: none.
  m.Set(0, 0, 0).AbortIfNotOk();
  m.Set(0, 1, 1).AbortIfNotOk();
  m.Set(0, 2, 1).AbortIfNotOk();
  m.Set(0, 3, 1).AbortIfNotOk();
  Dataset dataset("test", std::move(m));
  dataset.SetGold(0, 0).AbortIfNotOk();
  dataset.SetGold(1, 0).AbortIfNotOk();
  dataset.SetGold(2, 1).AbortIfNotOk();
  dataset.SetGold(3, 1).AbortIfNotOk();
  auto proxy = dataset.ProxyResponseMatrix(0);
  ASSERT_TRUE(proxy.ok());
  EXPECT_EQ(proxy->row_counts[0], 2);
  EXPECT_EQ(proxy->row_counts[2], 0);
  EXPECT_DOUBLE_EQ(proxy->probabilities[0][0], 0.5);
  EXPECT_DOUBLE_EQ(proxy->probabilities[0][1], 0.5);
  EXPECT_DOUBLE_EQ(proxy->probabilities[1][1], 1.0);
}

TEST(DatasetIo, RoundTrip) {
  ResponseMatrix m(3, 5, 3);
  Random rng(9);
  for (WorkerId w = 0; w < 3; ++w) {
    for (TaskId t = 0; t < 5; ++t) {
      if (rng.Bernoulli(0.7)) {
        m.Set(w, t, static_cast<int>(rng.UniformInt(3))).AbortIfNotOk();
      }
    }
  }
  m.Set(0, 0, 1).AbortIfNotOk();  // Ensure non-empty.
  Dataset dataset("roundtrip", std::move(m));
  dataset.SetGold(0, 2).AbortIfNotOk();
  dataset.SetGold(4, 0).AbortIfNotOk();

  std::string responses_path = testing::TempDir() + "/ds_resp.csv";
  std::string gold_path = testing::TempDir() + "/ds_gold.csv";
  ASSERT_TRUE(SaveDatasetCsv(dataset, responses_path, gold_path).ok());

  LoadOptions options;
  options.num_workers = 3;
  options.num_tasks = 5;
  options.arity = 3;
  auto loaded =
      LoadDatasetCsv("roundtrip", responses_path, gold_path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->responses().TotalResponses(),
            dataset.responses().TotalResponses());
  for (WorkerId w = 0; w < 3; ++w) {
    for (TaskId t = 0; t < 5; ++t) {
      EXPECT_EQ(loaded->responses().Get(w, t),
                dataset.responses().Get(w, t));
    }
  }
  EXPECT_EQ(*loaded->Gold(0), 2);
  EXPECT_EQ(*loaded->Gold(4), 0);
  EXPECT_FALSE(loaded->HasGold(1));
  std::remove(responses_path.c_str());
  std::remove(gold_path.c_str());
}

TEST(DatasetIo, MalformedInputsRejected) {
  std::string path = testing::TempDir() + "/bad.csv";
  ASSERT_TRUE(
      WriteStringToFile("worker,task,response\n0,0,1\n0,0,0\n", path)
          .ok());
  // Conflicting duplicate.
  EXPECT_TRUE(LoadDatasetCsv("bad", path).status().IsIoError());
  ASSERT_TRUE(
      WriteStringToFile("worker,task,response\n-1,0,1\n", path).ok());
  EXPECT_TRUE(LoadDatasetCsv("bad", path).status().IsIoError());
  ASSERT_TRUE(WriteStringToFile("worker,task\n0,0\n", path).ok());
  EXPECT_FALSE(LoadDatasetCsv("bad", path).ok());
  std::remove(path.c_str());
}

// Loads `csv` as a responses file and expects an IoError whose message
// contains `needle` (the row it names).
void ExpectLoadIoError(const std::string& csv, const std::string& needle) {
  std::string path = testing::TempDir() + "/bad_range.csv";
  ASSERT_TRUE(WriteStringToFile(csv, path).ok());
  auto loaded = LoadDatasetCsv("bad", path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.status().IsIoError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status();
}

TEST(DatasetIo, ResponseAboveLargestArityIsAnError) {
  // 32767 would need arity 32768, past the int16 cells (it aborted).
  ExpectLoadIoError("worker,task,response\n0,0,1\n1,0,32767\n", "row 2");
  // The largest response that fits loads.
  std::string path = testing::TempDir() + "/max_arity.csv";
  ASSERT_TRUE(
      WriteStringToFile("worker,task,response\n0,0,32766\n", path).ok());
  auto loaded = LoadDatasetCsv("max", path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->responses().arity(), 32767);
}

TEST(DatasetIo, ResponseAboveIntMaxIsAnErrorNotTruncated) {
  // 4294967297 truncated to int is 1, a valid binary response.
  ExpectLoadIoError("worker,task,response\n0,0,0\n1,0,4294967297\n",
                    "row 2");
}

TEST(DatasetIo, ShapeWhoseCellCountOverflowsIsAnError) {
  // (2^32 + 1) workers x 2^32 tasks would wrap size_t to 2^32 cells;
  // row 2 alone, 2^32 + 1 cells, is already above kMaxLoadCells.
  ExpectLoadIoError(
      "worker,task,response\n0,0,1\n4294967296,0,1\n0,4294967295,0\n",
      "row 2");
}

TEST(DatasetIo, HugeWorkerIdIsAnErrorNotAnAllocation) {
  // Sizing the matrix from its largest id would make this two-row file
  // ask for a 4e9 x 1 matrix: 8 GB of cells.
  ExpectLoadIoError("worker,task,response\n0,0,1\n4000000000,0,1\n",
                    "row 2");
}

TEST(DatasetIo, ShapeAboveTheCellCapIsAnError) {
  // 2^14 x (2^14 + 1) is just above kMaxLoadCells = 2^28; rows 1 and 2
  // alone (2^14 x 1) are far below it.
  static_assert(kMaxLoadCells == size_t{1} << 28);
  ExpectLoadIoError("worker,task,response\n0,0,1\n16383,0,1\n0,16384,0\n",
                    "row 3");
  std::string path = testing::TempDir() + "/tall.csv";
  ASSERT_TRUE(
      WriteStringToFile("worker,task,response\n0,0,1\n16383,0,1\n", path)
          .ok());
  auto loaded = LoadDatasetCsv("tall", path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->responses().num_workers(), 16384u);
}

TEST(DatasetIo, WorkerCountPastThePairTableCapIsAnError) {
  // 100001 x 1 cells pass the cell cap, but the overlap index's
  // 100001 x 100001 pair tables (160 GB) do not; building them threw
  // std::bad_alloc.
  ExpectLoadIoError("worker,task,response\n0,0,1\n100000,0,1\n",
                    "responses row 2 makes 100001 workers x 1 tasks");
  // 16384 workers is the most whose pair table fits kMaxLoadCells.
  ExpectLoadIoError("worker,task,response\n0,0,1\n16384,0,1\n", "row 2");
}

TEST(DatasetIo, TaskIdPastTheCountWidthIsAnError) {
  // Pair counts are uint32_t, so a task id must stay below
  // OverlapIndex::kMaxTasks = 2^32 - 1; this is checked before the cell
  // cap, so the message names the id.
  ExpectLoadIoError("worker,task,response\n0,0,1\n0,4294967295,1\n",
                    "task id 4294967295 in responses row 2");
}

TEST(DatasetIo, GoldLabelOutsideArityIsAnErrorNotTruncated) {
  std::string responses = testing::TempDir() + "/gold_resp.csv";
  std::string gold = testing::TempDir() + "/gold_bad.csv";
  ASSERT_TRUE(
      WriteStringToFile("worker,task,response\n0,0,1\n", responses).ok());
  ASSERT_TRUE(
      WriteStringToFile("task,truth\n0,1\n0,4294967296\n", gold).ok());
  auto loaded = LoadDatasetCsv("bad", responses, gold);
  std::remove(responses.c_str());
  std::remove(gold.c_str());
  ASSERT_TRUE(loaded.status().IsIoError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("gold row 2"), std::string::npos)
      << loaded.status();
}

TEST(OverlapIndex, PairCounts) {
  ResponseMatrix m(3, 4, 2);
  // w0: tasks 0,1,2; w1: tasks 1,2,3; w2: task 2 only.
  for (TaskId t : {0, 1, 2}) m.Set(0, t, 0).AbortIfNotOk();
  for (TaskId t : {1, 2, 3}) m.Set(1, t, 0).AbortIfNotOk();
  m.Set(2, 2, 1).AbortIfNotOk();
  OverlapIndex overlap(m);
  EXPECT_EQ(overlap.CommonCount(0, 1), 2u);
  EXPECT_EQ(overlap.CommonCount(0, 2), 1u);
  EXPECT_EQ(overlap.AgreementCount(0, 1), 2u);
  EXPECT_EQ(overlap.AgreementCount(0, 2), 0u);
  EXPECT_DOUBLE_EQ(*overlap.AgreementRate(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(*overlap.AgreementRate(0, 2), 0.0);
  EXPECT_EQ(overlap.TripleCommonCount(0, 1, 2), 1u);
}

TEST(OverlapIndex, EmptyOverlapIsError) {
  ResponseMatrix m(2, 2, 2);
  m.Set(0, 0, 0).AbortIfNotOk();
  m.Set(1, 1, 0).AbortIfNotOk();
  OverlapIndex overlap(m);
  EXPECT_EQ(overlap.CommonCount(0, 1), 0u);
  EXPECT_TRUE(overlap.AgreementRate(0, 1).status().IsInsufficientData());
}

// The paper's worked example from Section III-B: 100 tasks, w1 does
// the first 80, w2 the last 80, w3 the middle 80; then c12 = 60,
// c13 = c23 = 70, c123 = 60.
TEST(OverlapIndex, PaperWorkedExample) {
  ResponseMatrix m(3, 100, 2);
  for (TaskId t = 0; t < 80; ++t) m.Set(0, t, 0).AbortIfNotOk();
  for (TaskId t = 20; t < 100; ++t) m.Set(1, t, 0).AbortIfNotOk();
  for (TaskId t = 10; t < 90; ++t) m.Set(2, t, 0).AbortIfNotOk();
  OverlapIndex overlap(m);
  EXPECT_EQ(overlap.CommonCount(0, 1), 60u);
  EXPECT_EQ(overlap.CommonCount(0, 2), 70u);
  EXPECT_EQ(overlap.CommonCount(1, 2), 70u);
  EXPECT_EQ(overlap.TripleCommonCount(0, 1, 2), 60u);
}

// Every stored rate is AgreementCount / CommonCount, or 0 when the
// pair shares no task, and every count and rate equals a freshly built
// index's, compared bit for bit.
void ExpectSameAsFreshIndex(const OverlapIndex& index,
                            const ResponseMatrix& matrix,
                            const std::string& where) {
  const OverlapIndex fresh(matrix);
  for (WorkerId i = 0; i < matrix.num_workers(); ++i) {
    for (WorkerId j = 0; j < matrix.num_workers(); ++j) {
      const size_t common = index.CommonCount(i, j);
      ASSERT_EQ(common, fresh.CommonCount(i, j)) << where;
      ASSERT_EQ(index.AgreementCount(i, j), fresh.AgreementCount(i, j))
          << where;
      const double rate = index.AgreementRateRow(i)[j];
      const double want =
          common == 0 ? 0.0
                      : static_cast<double>(index.AgreementCount(i, j)) /
                            static_cast<double>(common);
      const double fresh_rate = fresh.AgreementRateRow(i)[j];
      ASSERT_EQ(std::memcmp(&rate, &want, sizeof rate), 0)
          << where << " (" << i << ", " << j << ")";
      ASSERT_EQ(std::memcmp(&rate, &fresh_rate, sizeof rate), 0)
          << where << " (" << i << ", " << j << ")";
      auto checked = index.AgreementRate(i, j);
      if (common == 0) {
        ASSERT_TRUE(checked.status().IsInsufficientData()) << where;
      } else {
        ASSERT_TRUE(checked.ok()) << where;
        ASSERT_EQ(std::memcmp(&*checked, &want, sizeof want), 0) << where;
      }
    }
  }
}

// ApplyResponse keeps the stored rates in step with the counts over a
// random stream of new responses, overwrites that keep the value and
// overwrites that flip agreements; a copy taken mid-stream keeps the
// state it was copied in.
TEST(OverlapIndexProperty, StoredRatesFollowEveryResponse) {
  for (int arity : {2, 3}) {
    Random rng(static_cast<uint64_t>(40 + arity));
    // 70 tasks: two bitset words, the last one partial.
    ResponseMatrix matrix(6, 70, arity);
    OverlapIndex index(matrix);
    std::optional<ResponseMatrix> copied_matrix;
    std::optional<OverlapIndex> copy;
    size_t overwrites = 0, flips = 0;
    for (int step = 0; step < 500; ++step) {
      const WorkerId w = rng.UniformInt(6);
      const TaskId t = rng.UniformInt(70);
      const auto previous = matrix.Get(w, t);
      const int value = static_cast<int>(rng.UniformInt(arity));
      ASSERT_TRUE(matrix.Set(w, t, value).ok());
      ASSERT_TRUE(index.ApplyResponse(w, t, previous).ok());
      if (previous.has_value()) {
        ++overwrites;
        if (*previous != value) ++flips;
      }
      const std::string where =
          "arity " + std::to_string(arity) + " step " + std::to_string(step);
      ExpectSameAsFreshIndex(index, matrix, where);
      if (step == 250) {
        copied_matrix.emplace(matrix);
        copy.emplace(index);
      }
      if (copy.has_value()) {
        ExpectSameAsFreshIndex(*copy, *copied_matrix, "copy at " + where);
      }
    }
    EXPECT_GT(overwrites, 50u);
    EXPECT_GT(flips, 20u);
  }
}

TEST(OverlapIndexDeathTest, MoreTasksThanACountHoldsIsFatal) {
  // Zero workers, so neither index allocates anything.
  const ResponseMatrix at_bound(0, OverlapIndex::kMaxTasks, 2);
  EXPECT_EQ(OverlapIndex(at_bound).num_workers(), 0u);
  const ResponseMatrix above(0, OverlapIndex::kMaxTasks + 1, 2);
  EXPECT_DEATH(OverlapIndex{above}, "num_tasks_ <= kMaxTasks");
}

// Bitset triple counting agrees with brute force on random data.
TEST(OverlapIndexProperty, TripleCountMatchesBruteForce) {
  Random rng(17);
  ResponseMatrix m(6, 130, 2);
  for (WorkerId w = 0; w < 6; ++w) {
    for (TaskId t = 0; t < 130; ++t) {
      if (rng.Bernoulli(0.6)) m.Set(w, t, 0).AbortIfNotOk();
    }
  }
  OverlapIndex overlap(m);
  for (WorkerId i = 0; i < 6; ++i) {
    for (WorkerId j = 0; j < 6; ++j) {
      for (WorkerId k = 0; k < 6; ++k) {
        size_t brute = 0;
        for (TaskId t = 0; t < 130; ++t) {
          if (m.Has(i, t) && m.Has(j, t) && m.Has(k, t)) ++brute;
        }
        ASSERT_EQ(overlap.TripleCommonCount(i, j, k), brute);
      }
    }
  }
}

}  // namespace
}  // namespace crowd::data
