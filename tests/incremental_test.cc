// Tests for the incremental evaluator: its statistics and assessments
// must match the batch pipeline exactly at every prefix of the stream,
// with memoization that only skips genuinely clean workers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/m_worker.h"
#include "data/overlap_index.h"
#include "rng/random.h"
#include "sim/simulator.h"

namespace crowd::core {
namespace {

TEST(Incremental, OverlapStatsMatchRebuildUnderStreaming) {
  Random rng(3);
  const size_t m = 6, n = 80;
  data::ResponseMatrix reference(m, n, 2);
  IncrementalEvaluator incremental(m, n);

  for (int step = 0; step < 400; ++step) {
    data::WorkerId w = rng.UniformInt(m);
    data::TaskId t = rng.UniformInt(n);
    data::Response r = rng.Bernoulli(0.5) ? 1 : 0;
    ASSERT_TRUE(reference.Set(w, t, r).ok());
    ASSERT_TRUE(incremental.AddResponse(w, t, r).ok());

    if (step % 57 != 0) continue;  // Compare a sample of prefixes.
    data::OverlapIndex rebuilt(reference);
    for (data::WorkerId a = 0; a < m; ++a) {
      for (data::WorkerId b = 0; b < m; ++b) {
        ASSERT_EQ(incremental.overlap().CommonCount(a, b),
                  rebuilt.CommonCount(a, b))
            << "step " << step;
        ASSERT_EQ(incremental.overlap().AgreementCount(a, b),
                  rebuilt.AgreementCount(a, b))
            << "step " << step;
        for (data::WorkerId c = 0; c < m; ++c) {
          ASSERT_EQ(incremental.overlap().TripleCommonCount(a, b, c),
                    rebuilt.TripleCommonCount(a, b, c));
        }
      }
    }
  }
}

TEST(Incremental, AssessmentsMatchBatchAtEveryCheckpoint) {
  Random rng(5);
  sim::BinarySimConfig config;
  config.num_workers = 7;
  config.num_tasks = 150;
  config.assignment = sim::AssignmentConfig::Iid(0.8);
  auto sim = sim::SimulateBinary(config, &rng);

  BinaryOptions options;
  IncrementalEvaluator incremental(7, 150, options);
  data::ResponseMatrix replay(7, 150, 2);

  int checked = 0;
  for (data::TaskId t = 0; t < 150; ++t) {
    for (data::WorkerId w = 0; w < 7; ++w) {
      auto r = sim.dataset.responses().Get(w, t);
      if (!r.has_value()) continue;
      ASSERT_TRUE(incremental.AddResponse(w, t, *r).ok());
      ASSERT_TRUE(replay.Set(w, t, *r).ok());
    }
    if (t % 37 != 36) continue;
    auto batch = MWorkerEvaluate(replay, options);
    ASSERT_TRUE(batch.ok());
    auto streaming = incremental.EvaluateAll();
    ASSERT_EQ(streaming.assessments.size(), batch->assessments.size());
    ASSERT_EQ(streaming.failures.size(), batch->failures.size());
    for (size_t i = 0; i < streaming.assessments.size(); ++i) {
      const auto& a = streaming.assessments[i];
      const auto& b = batch->assessments[i];
      EXPECT_EQ(a.worker, b.worker);
      EXPECT_NEAR(a.error_rate, b.error_rate, 1e-12);
      EXPECT_NEAR(a.deviation, b.deviation, 1e-12);
      EXPECT_EQ(a.num_triples, b.num_triples);
    }
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(Incremental, OverwritingAResponseUpdatesAgreement) {
  IncrementalEvaluator incremental(3, 4);
  ASSERT_TRUE(incremental.AddResponse(0, 0, 1).ok());
  ASSERT_TRUE(incremental.AddResponse(1, 0, 1).ok());
  EXPECT_EQ(incremental.overlap().AgreementCount(0, 1), 1u);
  // Flip worker 1's response: agreement disappears, common stays.
  ASSERT_TRUE(incremental.AddResponse(1, 0, 0).ok());
  EXPECT_EQ(incremental.overlap().AgreementCount(0, 1), 0u);
  EXPECT_EQ(incremental.overlap().CommonCount(0, 1), 1u);
  // Flip back.
  ASSERT_TRUE(incremental.AddResponse(1, 0, 1).ok());
  EXPECT_EQ(incremental.overlap().AgreementCount(0, 1), 1u);
  // Re-submitting the same response is a no-op.
  ASSERT_TRUE(incremental.AddResponse(1, 0, 1).ok());
  EXPECT_EQ(incremental.overlap().CommonCount(0, 1), 1u);
  EXPECT_EQ(incremental.responses().TotalResponses(), 2u);
}

TEST(Incremental, MemoizationSkipsUntouchedWorkers) {
  Random rng(7);
  sim::BinarySimConfig config;
  config.num_workers = 6;
  config.num_tasks = 120;
  auto sim = sim::SimulateBinary(config, &rng);

  IncrementalEvaluator incremental(6, 120);
  for (data::TaskId t = 0; t < 120; ++t) {
    for (data::WorkerId w = 0; w < 6; ++w) {
      auto r = sim.dataset.responses().Get(w, t);
      if (r.has_value()) {
        ASSERT_TRUE(incremental.AddResponse(w, t, *r).ok());
      }
    }
  }
  EXPECT_EQ(incremental.DirtyWorkerCount(), 6u);
  incremental.EvaluateAll();
  EXPECT_EQ(incremental.DirtyWorkerCount(), 0u);
  // A repeated identical response leaves caches warm.
  auto existing = incremental.responses().Get(0, 0);
  ASSERT_TRUE(existing.has_value());
  ASSERT_TRUE(incremental.AddResponse(0, 0, *existing).ok());
  EXPECT_EQ(incremental.DirtyWorkerCount(), 0u);
  // A fresh response dirties the responder and overlapping workers —
  // on this dense data, everyone.
  ASSERT_TRUE(incremental.AddResponse(
                  0, 0, 1 - *existing).ok());
  EXPECT_EQ(incremental.DirtyWorkerCount(), 6u);
}

// Regression test for over-invalidation: a response to a task with no
// other attempters must not invalidate workers that cannot observe any
// changed statistic through their peers.
TEST(Incremental, ResponseToUnsharedTaskOnlyDirtiesResponder) {
  const size_t m = 3, n = 6;
  IncrementalEvaluator incremental(m, n);
  // Everyone answers tasks 0..3, so all pairs overlap.
  for (data::TaskId t = 0; t < 4; ++t) {
    for (data::WorkerId w = 0; w < m; ++w) {
      ASSERT_TRUE(
          incremental.AddResponse(w, t, (w + t) % 2 == 0 ? 1 : 0).ok());
    }
  }
  incremental.EvaluateAll();
  ASSERT_EQ(incremental.DirtyWorkerCount(), 0u);

  // Worker 0 answers task 5, which nobody else attempted. Only the
  // self-pair statistics of worker 0 change, so only worker 0's cache
  // may be invalidated.
  ASSERT_TRUE(incremental.AddResponse(0, 5, 1).ok());
  EXPECT_EQ(incremental.DirtyWorkerCount(), 1u);

  // And the refreshed results still match a batch evaluation.
  auto streaming = incremental.EvaluateAll();
  EXPECT_EQ(incremental.DirtyWorkerCount(), 0u);
  auto batch = MWorkerEvaluate(incremental.responses(), BinaryOptions{});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(streaming.assessments.size(), batch->assessments.size());
  for (size_t i = 0; i < streaming.assessments.size(); ++i) {
    EXPECT_EQ(streaming.assessments[i].error_rate,
              batch->assessments[i].error_rate);
  }
}

// The counterpart: once a task IS shared, a response to it must dirty
// every worker whose evaluation can read a changed pair statistic —
// including workers that never attempted the task but have both
// attempters as peers.
TEST(Incremental, ResponseToSharedTaskDirtiesObservers) {
  const size_t m = 3, n = 6;
  IncrementalEvaluator incremental(m, n);
  for (data::TaskId t = 0; t < 4; ++t) {
    for (data::WorkerId w = 0; w < m; ++w) {
      ASSERT_TRUE(
          incremental.AddResponse(w, t, (w + t) % 2 == 0 ? 1 : 0).ok());
    }
  }
  // Worker 1 alone attempts task 4: dirties only worker 1.
  incremental.EvaluateAll();
  ASSERT_TRUE(incremental.AddResponse(1, 4, 0).ok());
  EXPECT_EQ(incremental.DirtyWorkerCount(), 1u);
  incremental.EvaluateAll();
  ASSERT_EQ(incremental.DirtyWorkerCount(), 0u);

  // Worker 0 then answers task 4 too: the pair (0, 1) changes, and
  // worker 2 — who overlaps both — evaluates the triple (2, 0, 1)
  // whose peer-pair statistic q_{0,1} just moved. All three are dirty.
  ASSERT_TRUE(incremental.AddResponse(0, 4, 0).ok());
  EXPECT_EQ(incremental.DirtyWorkerCount(), 3u);

  auto streaming = incremental.EvaluateAll();
  auto batch = MWorkerEvaluate(incremental.responses(), BinaryOptions{});
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(streaming.assessments.size(), batch->assessments.size());
  for (size_t i = 0; i < streaming.assessments.size(); ++i) {
    EXPECT_EQ(streaming.assessments[i].error_rate,
              batch->assessments[i].error_rate);
  }
}

// A matrix bulk-built into an evaluator must give exactly the state of
// one fed the same final cells one at a time (with overwrites along the
// way): the same pair, attempt and triple counts, every worker stale,
// and bit-identical assessments.
TEST(Incremental, BulkBuildEqualsPerCellBuild) {
  constexpr size_t kTasks = 80;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (double density : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      for (size_t m : {size_t{3}, size_t{7}, size_t{40}}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " density "
                                        << density << " m " << m);
        Random rng(seed);
        std::vector<data::Response> truth(kTasks);
        for (auto& label : truth) label = rng.Bernoulli(0.5) ? 1 : 0;
        data::ResponseMatrix matrix(m, kTasks, 2);
        std::vector<std::pair<data::WorkerId, data::TaskId>> cells;
        for (data::WorkerId w = 0; w < m; ++w) {
          const double error = rng.Uniform(0.1, 0.35);
          for (data::TaskId t = 0; t < kTasks; ++t) {
            if (!rng.Bernoulli(density)) continue;
            const data::Response r =
                rng.Bernoulli(error) ? 1 - truth[t] : truth[t];
            ASSERT_TRUE(matrix.Set(w, t, r).ok());
            cells.emplace_back(w, t);
          }
        }

        IncrementalEvaluator per_cell(m, kTasks);
        rng.Shuffle(&cells);
        for (const auto& [w, t] : cells) {
          const data::Response r = *matrix.Get(w, t);
          bool changed = false;
          if (rng.Bernoulli(0.3)) {  // overwritten later
            ASSERT_TRUE(per_cell.AddResponse(w, t, 1 - r, &changed).ok());
            EXPECT_TRUE(changed);
          }
          ASSERT_TRUE(per_cell.AddResponse(w, t, r, &changed).ok());
          EXPECT_TRUE(changed);
        }
        if (!cells.empty()) {
          const auto& [w, t] = cells.front();
          bool changed = true;
          ASSERT_TRUE(per_cell.AddResponse(w, t, *matrix.Get(w, t), &changed)
                          .ok());
          EXPECT_FALSE(changed);
        }
        IncrementalEvaluator bulk(matrix);
        EXPECT_EQ(bulk.DirtyWorkerCount(), m);
        EXPECT_EQ(bulk.TotalResponses(), per_cell.TotalResponses());

        const data::OverlapIndex& a = bulk.overlap();
        const data::OverlapIndex& b = per_cell.overlap();
        for (data::WorkerId i = 0; i < m; ++i) {
          for (data::WorkerId j = 0; j < m; ++j) {
            ASSERT_EQ(a.CommonCount(i, j), b.CommonCount(i, j));
            ASSERT_EQ(a.AgreementCount(i, j), b.AgreementCount(i, j));
          }
          for (data::TaskId t = 0; t < kTasks; ++t) {
            ASSERT_EQ(a.Attempted(i, t), b.Attempted(i, t));
          }
        }
        for (int k = 0; k < 200; ++k) {
          const data::WorkerId i = rng.UniformInt(m);
          const data::WorkerId j = rng.UniformInt(m);
          const data::WorkerId l = rng.UniformInt(m);
          ASSERT_EQ(a.TripleCommonCount(i, j, l),
                    b.TripleCommonCount(i, j, l));
        }

        const MWorkerResult x = bulk.EvaluateAll();
        const MWorkerResult y = per_cell.EvaluateAll();
        ASSERT_EQ(x.assessments.size(), y.assessments.size());
        for (size_t i = 0; i < x.assessments.size(); ++i) {
          const WorkerAssessment& p = x.assessments[i];
          const WorkerAssessment& q = y.assessments[i];
          EXPECT_EQ(p.worker, q.worker);
          EXPECT_EQ(p.num_triples, q.num_triples);
          EXPECT_EQ(p.any_clamped, q.any_clamped);
          const double px[] = {p.error_rate, p.deviation, p.interval.lo,
                               p.interval.hi, p.interval.confidence};
          const double qx[] = {q.error_rate, q.deviation, q.interval.lo,
                               q.interval.hi, q.interval.confidence};
          EXPECT_EQ(std::memcmp(px, qx, sizeof(px)), 0)
              << "worker " << p.worker;
        }
        ASSERT_EQ(x.failures.size(), y.failures.size());
        for (size_t i = 0; i < x.failures.size(); ++i) {
          EXPECT_EQ(x.failures[i].first, y.failures[i].first);
          EXPECT_EQ(x.failures[i].second.ToString(),
                    y.failures[i].second.ToString());
        }
      }
    }
  }
}

TEST(Incremental, RangeValidation) {
  IncrementalEvaluator incremental(2, 3);
  EXPECT_TRUE(incremental.AddResponse(2, 0, 0).IsInvalid());
  EXPECT_TRUE(incremental.AddResponse(0, 3, 0).IsInvalid());
  EXPECT_TRUE(incremental.Evaluate(5).status().IsInvalid());
}

// AddResponse handles untrusted (network) input: rejections must name
// the offending id/value and the valid range, and must leave the
// evaluator completely untouched.
TEST(Incremental, AddResponseRejectionNamesOffendingValue) {
  IncrementalEvaluator incremental(4, 7);
  ASSERT_TRUE(incremental.AddResponse(1, 2, 1).ok());

  Status st = incremental.AddResponse(4, 0, 0);
  ASSERT_TRUE(st.IsInvalid());
  EXPECT_NE(st.message().find("worker id 4 out of range [0, 4)"),
            std::string::npos)
      << st.message();

  st = incremental.AddResponse(0, 7, 0);
  ASSERT_TRUE(st.IsInvalid());
  EXPECT_NE(st.message().find("task id 7 out of range [0, 7)"),
            std::string::npos)
      << st.message();

  st = incremental.AddResponse(0, 0, 2);
  ASSERT_TRUE(st.IsInvalid());
  EXPECT_NE(st.message().find("response 2"), std::string::npos)
      << st.message();
  st = incremental.AddResponse(0, 0, -1);
  ASSERT_TRUE(st.IsInvalid());
  EXPECT_NE(st.message().find("response -1"), std::string::npos)
      << st.message();

  // No rejected call changed any state.
  EXPECT_EQ(incremental.TotalResponses(), 1u);
  EXPECT_EQ(incremental.responses().Get(1, 2), std::optional<int>(1));
}

}  // namespace
}  // namespace crowd::core
