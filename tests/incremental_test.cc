// Tests for the incremental evaluator: its statistics and assessments
// must match the batch pipeline exactly at every prefix of the stream,
// with memoization that only skips genuinely clean workers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <latch>
#include <thread>
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

// Bitwise equality of two evaluation outcomes.
void ExpectSameOutcome(const Result<WorkerAssessment>& x,
                       const Result<WorkerAssessment>& y) {
  ASSERT_EQ(x.ok(), y.ok());
  if (!x.ok()) {
    EXPECT_EQ(x.status().ToString(), y.status().ToString());
    return;
  }
  EXPECT_EQ(x->worker, y->worker);
  EXPECT_EQ(x->num_triples, y->num_triples);
  EXPECT_EQ(x->any_clamped, y->any_clamped);
  const double px[] = {x->error_rate, x->deviation, x->interval.lo,
                       x->interval.hi, x->interval.confidence};
  const double qx[] = {y->error_rate, y->deviation, y->interval.lo,
                       y->interval.hi, y->interval.confidence};
  EXPECT_EQ(std::memcmp(px, qx, sizeof(px)), 0) << "worker " << x->worker;
}

void ExpectSameResult(const MWorkerResult& x, const MWorkerResult& y) {
  ASSERT_EQ(x.assessments.size(), y.assessments.size());
  for (size_t i = 0; i < x.assessments.size(); ++i) {
    ExpectSameOutcome(x.assessments[i], y.assessments[i]);
  }
  ASSERT_EQ(x.failures.size(), y.failures.size());
  for (size_t i = 0; i < x.failures.size(); ++i) {
    EXPECT_EQ(x.failures[i].first, y.failures[i].first);
    EXPECT_EQ(x.failures[i].second.ToString(),
              y.failures[i].second.ToString());
  }
}

// A pass captured at state S_k evaluates S_k exactly, however many
// responses land before its commit, and the commit caches exactly the
// workers that no later response dirtied. The crowd is two blocks of
// workers on disjoint tasks: a response inside block A dirties only
// (part of) A; rounds that write to both blocks dirty workers in both.
// A twin evaluator, fully cached at S_k and fed the same later
// responses, says which workers those responses dirtied. In the later
// rounds a second pass, captured after those responses, commits first;
// the older pass must then evict none of its fresher entries.
TEST(Incremental, PassIsExactAtCaptureAndCommitKeepsUndirtiedWorkers) {
  constexpr size_t kTasksPerBlock = 60;
  constexpr size_t kLaterResponses = 8;
  using IndexView = IncrementalEvaluator::IndexView;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (size_t m : {size_t{7}, size_t{40}}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " m " << m
                                        << " threads " << threads);
        BinaryOptions options;
        options.num_threads = threads;
        Random rng(seed);
        const size_t half = m / 2;  // block A = [0, half), B = the rest
        auto pick_worker = [&](size_t block) -> data::WorkerId {
          return block == 0 ? rng.UniformInt(half)
                            : half + rng.UniformInt(m - half);
        };
        auto pick_task = [&](size_t block) -> data::TaskId {
          return block * kTasksPerBlock + rng.UniformInt(kTasksPerBlock);
        };
        IncrementalEvaluator evaluator(m, 2 * kTasksPerBlock, options);
        for (data::WorkerId w = 0; w < m; ++w) {
          const size_t block = w < half ? 0 : 1;
          for (data::TaskId t = 0; t < kTasksPerBlock; ++t) {
            if (!rng.Bernoulli(0.7)) continue;
            ASSERT_TRUE(evaluator
                            .AddResponse(w, block * kTasksPerBlock + t,
                                         rng.Bernoulli(0.8) ? 1 : 0)
                            .ok());
          }
        }
        for (int round = 0; round < 8; ++round) {
          SCOPED_TRACE(testing::Message() << "round " << round);
          const bool both_blocks = round % 2 == 1;
          const bool overlapping = round >= 4;
          const data::ResponseMatrix at_capture = evaluator.responses();
          IncrementalEvaluator::Pass pass =
              evaluator.CaptureAll(IndexView::kCopy);
          IncrementalEvaluator twin(at_capture, options);
          twin.EvaluateAll();
          for (size_t k = 0; k < kLaterResponses; ++k) {
            const size_t block = both_blocks ? k % 2 : 0;
            const data::WorkerId w = pick_worker(block);
            const data::TaskId t = pick_task(block);
            // Always a real change: a new cell or a flipped one.
            const auto previous = evaluator.responses().Get(w, t);
            const data::Response r =
                previous.has_value() ? 1 - *previous : 1;
            bool changed = false;
            ASSERT_TRUE(evaluator.AddResponse(w, t, r, &changed).ok());
            ASSERT_TRUE(changed);
            ASSERT_TRUE(twin.AddResponse(w, t, r).ok());
          }
          const MWorkerResult result = evaluator.RunAll(&pass);
          if (overlapping) {
            IncrementalEvaluator::Pass newer =
                evaluator.CaptureAll(IndexView::kCopy);
            const MWorkerResult newer_result = evaluator.RunAll(&newer);
            evaluator.Commit(std::move(newer));
            auto now = MWorkerEvaluate(evaluator.responses(), options);
            ASSERT_TRUE(now.ok()) << now.status();
            ExpectSameResult(newer_result, *now);
          }
          evaluator.Commit(std::move(pass));

          auto expected = MWorkerEvaluate(at_capture, options);
          ASSERT_TRUE(expected.ok()) << expected.status();
          ExpectSameResult(result, *expected);

          for (data::WorkerId w = 0; w < m; ++w) {
            ASSERT_EQ(evaluator.IsCached(w), overlapping || twin.IsCached(w))
                << "worker " << w;
            if (!evaluator.IsCached(w)) continue;
            ExpectSameOutcome(
                evaluator.Evaluate(w),
                EvaluateWorker(evaluator.overlap(), w, options));
          }
          size_t dirtied[2] = {0, 0};
          for (data::WorkerId w = 0; w < m; ++w) {
            if (!twin.IsCached(w)) ++dirtied[w < half ? 0 : 1];
          }
          EXPECT_GT(dirtied[0], 0u);
          if (both_blocks) {
            EXPECT_GT(dirtied[1], 0u);
          } else {
            EXPECT_EQ(dirtied[1], 0u);
          }
        }
      }
    }
  }
}

// An evaluator whose evaluations block until the test releases them.
class BlockingEvaluator : public IncrementalEvaluator {
 public:
  using IncrementalEvaluator::IncrementalEvaluator;

  /// Counted down by the first evaluation to start.
  mutable std::latch entered{1};
  /// Every evaluation waits on it.
  mutable std::latch release{1};

 protected:
  Result<WorkerAssessment> EvaluateUncached(
      const data::OverlapIndex& overlap,
      data::WorkerId worker) const override {
    if (!started_.exchange(true)) entered.count_down();
    release.wait();
    return IncrementalEvaluator::EvaluateUncached(overlap, worker);
  }

 private:
  mutable std::atomic<bool> started_{false};
};

// Responses applied while a pass is inside an evaluation (on another
// thread) change nothing in its result: it is exactly the state at
// capture. The next pass then sees the final state.
TEST(Incremental, ResponsesDuringRunLeaveThePassExact) {
  Random rng(11);
  sim::BinarySimConfig config;
  config.num_workers = 8;
  config.num_tasks = 120;
  config.assignment = sim::AssignmentConfig::Iid(0.6);
  const auto sim = sim::SimulateBinary(config, &rng);
  const data::ResponseMatrix& all = sim.dataset.responses();
  constexpr data::TaskId kCaptureAt = 90;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    BinaryOptions options;
    options.num_threads = threads;
    data::ResponseMatrix prefix(config.num_workers, config.num_tasks, 2);
    for (data::WorkerId w = 0; w < config.num_workers; ++w) {
      for (data::TaskId t = 0; t < kCaptureAt; ++t) {
        if (auto r = all.Get(w, t)) {
          ASSERT_TRUE(prefix.Set(w, t, *r).ok());
        }
      }
    }
    BlockingEvaluator evaluator(prefix, options);
    IncrementalEvaluator::Pass pass =
        evaluator.CaptureAll(IncrementalEvaluator::IndexView::kCopy);
    MWorkerResult result;
    std::thread runner([&] { result = evaluator.RunAll(&pass); });
    evaluator.entered.wait();
    size_t applied = 0;
    for (data::WorkerId w = 0; w < config.num_workers; ++w) {
      for (data::TaskId t = kCaptureAt; t < config.num_tasks; ++t) {
        if (auto r = all.Get(w, t)) {
          ASSERT_TRUE(evaluator.AddResponse(w, t, *r).ok());
          ++applied;
        }
      }
    }
    evaluator.release.count_down();
    runner.join();
    evaluator.Commit(std::move(pass));
    EXPECT_GT(applied, 0u);

    auto expected = MWorkerEvaluate(prefix, options);
    ASSERT_TRUE(expected.ok()) << expected.status();
    ExpectSameResult(result, *expected);
    auto final_state = MWorkerEvaluate(all, options);
    ASSERT_TRUE(final_state.ok()) << final_state.status();
    ExpectSameResult(evaluator.EvaluateAll(), *final_state);
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
