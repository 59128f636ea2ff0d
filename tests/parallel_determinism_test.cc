// The parallel evaluation engine's core guarantee: num_threads changes
// wall-clock, never results. Every entry point that fans out through
// EvaluatePool must produce bit-identical assessments and identically
// ordered failures for every thread count. This suite is also the
// target of the TSan CI job — any data race in the worker fan-out
// shows up here under -fsanitize=thread.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluate_pool.h"
#include "core/evaluator.h"
#include "core/incremental.h"
#include "core/m_worker.h"
#include "rng/random.h"
#include "sim/simulator.h"
#include "util/string_util.h"

namespace crowd::core {
namespace {

// Exact (bitwise) equality of two binary evaluation results, including
// the order and contents of the failure list.
void ExpectIdentical(const MWorkerResult& a, const MWorkerResult& b,
                     const char* label) {
  ASSERT_EQ(a.assessments.size(), b.assessments.size()) << label;
  ASSERT_EQ(a.failures.size(), b.failures.size()) << label;
  for (size_t i = 0; i < a.assessments.size(); ++i) {
    const WorkerAssessment& x = a.assessments[i];
    const WorkerAssessment& y = b.assessments[i];
    EXPECT_EQ(x.worker, y.worker) << label;
    EXPECT_EQ(x.error_rate, y.error_rate) << label << " w" << x.worker;
    EXPECT_EQ(x.deviation, y.deviation) << label << " w" << x.worker;
    EXPECT_EQ(x.interval.lo, y.interval.lo) << label << " w" << x.worker;
    EXPECT_EQ(x.interval.hi, y.interval.hi) << label << " w" << x.worker;
    EXPECT_EQ(x.interval.confidence, y.interval.confidence) << label;
    EXPECT_EQ(x.num_triples, y.num_triples) << label << " w" << x.worker;
    EXPECT_EQ(x.any_clamped, y.any_clamped) << label << " w" << x.worker;
  }
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].first, b.failures[i].first) << label;
    EXPECT_EQ(a.failures[i].second.code(), b.failures[i].second.code())
        << label;
    EXPECT_EQ(a.failures[i].second.message(),
              b.failures[i].second.message())
        << label;
  }
}

// A seeded non-regular pool with a guaranteed failure entry (worker 11
// loses every response), so both output vectors are exercised.
data::ResponseMatrix NonRegularMatrixWithFailure() {
  Random rng(17);
  sim::BinarySimConfig config;
  config.num_workers = 12;
  config.num_tasks = 150;
  config.assignment = sim::AssignmentConfig::Iid(0.7);
  auto sim = sim::SimulateBinary(config, &rng);
  for (data::TaskId t = 0; t < config.num_tasks; ++t) {
    sim.dataset.mutable_responses()->Clear(11, t);
  }
  return sim.dataset.responses();
}

TEST(ParallelDeterminism, MWorkerBitIdenticalAcrossThreadCounts) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  BinaryOptions options;
  options.num_threads = 1;
  auto serial = MWorkerEvaluate(responses, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_FALSE(serial->assessments.empty());
  ASSERT_FALSE(serial->failures.empty());  // Worker 11.
  for (size_t threads : {size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    auto parallel = MWorkerEvaluate(responses, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectIdentical(*serial, *parallel,
                    threads == 2 ? "threads=2" : "threads=8");
  }
}

TEST(ParallelDeterminism, MWorkerAutoThreadsAlsoIdentical) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  BinaryOptions options;
  options.num_threads = 1;
  auto serial = MWorkerEvaluate(responses, options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 0;  // One thread per hardware core.
  auto parallel = MWorkerEvaluate(responses, options);
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(*serial, *parallel, "threads=auto");
}

TEST(ParallelDeterminism, RandomPairingStaysSeededUnderThreads) {
  // The kRandom pairing strategy derives its stream from the worker id,
  // so it must stay deterministic under the fan-out too.
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  BinaryOptions options;
  options.pairing = PairingStrategy::kRandom;
  options.pairing_seed = 99;
  options.num_threads = 1;
  auto serial = MWorkerEvaluate(responses, options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 4;
  auto parallel = MWorkerEvaluate(responses, options);
  ASSERT_TRUE(parallel.ok());
  ExpectIdentical(*serial, *parallel, "random pairing");
}

TEST(ParallelDeterminism, IncrementalEvaluateAllMatchesSerial) {
  Random rng(29);
  sim::BinarySimConfig config;
  config.num_workers = 8;
  config.num_tasks = 120;
  config.assignment = sim::AssignmentConfig::Iid(0.75);
  auto sim = sim::SimulateBinary(config, &rng);

  BinaryOptions serial_options;
  serial_options.num_threads = 1;
  BinaryOptions parallel_options;
  parallel_options.num_threads = 4;
  IncrementalEvaluator serial(8, 120, serial_options);
  IncrementalEvaluator parallel(8, 120, parallel_options);
  for (data::TaskId t = 0; t < 120; ++t) {
    for (data::WorkerId w = 0; w < 8; ++w) {
      auto r = sim.dataset.responses().Get(w, t);
      if (!r.has_value()) continue;
      ASSERT_TRUE(serial.AddResponse(w, t, *r).ok());
      ASSERT_TRUE(parallel.AddResponse(w, t, *r).ok());
    }
  }
  MWorkerResult a = serial.EvaluateAll();
  MWorkerResult b = parallel.EvaluateAll();
  ExpectIdentical(a, b, "incremental");
  EXPECT_EQ(serial.DirtyWorkerCount(), 0u);
  EXPECT_EQ(parallel.DirtyWorkerCount(), 0u);
  // Warm caches: a second parallel EvaluateAll reuses every entry and
  // still matches.
  MWorkerResult c = parallel.EvaluateAll();
  ExpectIdentical(a, c, "incremental warm");
}

TEST(ParallelDeterminism, ThrowingWorkerBecomesOneInternalFailure) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  data::OverlapIndex overlap(responses);
  const BinaryOptions options;
  auto evaluate = [&](data::WorkerId w) -> Result<WorkerAssessment> {
    if (w == 5) throw std::runtime_error("injected");
    return EvaluateWorker(overlap, w, options);
  };
  MWorkerResult serial = EvaluatePool<WorkerAssessment>(
      responses.num_workers(), 1, evaluate);
  size_t internal = 0;
  for (const auto& [worker, status] : serial.failures) {
    if (status.code() != StatusCode::kInternal) continue;
    ++internal;
    EXPECT_EQ(worker, 5u);
    EXPECT_NE(status.message().find("injected"), std::string::npos);
  }
  EXPECT_EQ(internal, 1u);
  // Every other worker was still evaluated: 11 is the planted
  // InsufficientData failure, the rest are assessed.
  EXPECT_EQ(serial.failures.size(), 2u);
  EXPECT_EQ(serial.assessments.size(), responses.num_workers() - 2);
  MWorkerResult parallel = EvaluatePool<WorkerAssessment>(
      responses.num_workers(), 4, evaluate);
  ExpectIdentical(serial, parallel, "throwing body");
}

TEST(ParallelDeterminism, EvaluatePoolRunsEachWorkerOnceInIdOrder) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
    for (size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                           size_t{64}}) {
      SCOPED_TRACE(testing::Message()
                   << "threads " << threads << ", workers " << workers);
      std::vector<std::atomic<int>> calls(workers);
      // Odd workers fail, so both output vectors are checked.
      auto result = EvaluatePool<data::WorkerId>(
          workers, threads, [&](data::WorkerId w) -> Result<data::WorkerId> {
            calls[w].fetch_add(1);
            if (w % 2 == 1) return Status::Invalid(StrFormat("odd %zu", w));
            return w;
          });
      for (size_t w = 0; w < workers; ++w) {
        EXPECT_EQ(calls[w].load(), 1) << "worker " << w;
      }
      ASSERT_EQ(result.assessments.size(), (workers + 1) / 2);
      ASSERT_EQ(result.failures.size(), workers / 2);
      for (size_t i = 0; i < result.assessments.size(); ++i) {
        EXPECT_EQ(result.assessments[i], 2 * i);
      }
      for (size_t i = 0; i < result.failures.size(); ++i) {
        EXPECT_EQ(result.failures[i].first, 2 * i + 1);
        EXPECT_EQ(result.failures[i].second.message(),
                  StrFormat("odd %zu", 2 * i + 1));
      }
    }
  }
}

// This process's thread count, from the kernel's view of it.
size_t LiveThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoul(line.substr(std::strlen("Threads:")));
    }
  }
  return 0;
}

TEST(ParallelDeterminism, EvaluatePoolStartsNoMoreHelpersThanWorkers) {
  const size_t before = LiveThreads();
  ASSERT_GT(before, 0u) << "no Threads: line in /proc/self/status";
  // Each worker's "assessment" is the thread count its body saw.
  auto result = EvaluatePool<size_t>(
      2, 16, [](data::WorkerId) -> Result<size_t> { return LiveThreads(); });
  ASSERT_EQ(result.assessments.size(), 2u);
  for (size_t seen : result.assessments) EXPECT_LE(seen, before + 1);
}

// An incremental evaluator whose evaluation of one worker throws.
class ThrowingIncrementalEvaluator : public IncrementalEvaluator {
 public:
  ThrowingIncrementalEvaluator(size_t num_workers, size_t num_tasks,
                               BinaryOptions options,
                               data::WorkerId throwing_worker)
      : IncrementalEvaluator(num_workers, num_tasks, options),
        throwing_worker_(throwing_worker) {}

 protected:
  Result<WorkerAssessment> EvaluateUncached(
      const data::OverlapIndex& overlap,
      data::WorkerId worker) const override {
    if (worker == throwing_worker_) throw std::runtime_error("injected");
    return IncrementalEvaluator::EvaluateUncached(overlap, worker);
  }

 private:
  data::WorkerId throwing_worker_;
};

TEST(ParallelDeterminism, IncrementalThrowLeavesWorkerStale) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  const size_t m = responses.num_workers();
  const size_t n = responses.num_tasks();
  MWorkerResult results[2];
  const size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    BinaryOptions options;
    options.num_threads = thread_counts[i];
    ThrowingIncrementalEvaluator evaluator(m, n, options, 3);
    for (data::TaskId t = 0; t < n; ++t) {
      for (data::WorkerId w = 0; w < m; ++w) {
        auto r = responses.Get(w, t);
        if (!r.has_value()) continue;
        ASSERT_TRUE(evaluator.AddResponse(w, t, *r).ok());
      }
    }
    results[i] = evaluator.EvaluateAll();
    size_t internal = 0;
    for (const auto& [worker, status] : results[i].failures) {
      if (status.code() != StatusCode::kInternal) continue;
      ++internal;
      EXPECT_EQ(worker, 3u);
    }
    EXPECT_EQ(internal, 1u);
    // The throw filled no cache entry: worker 3 alone stays stale, and
    // a second pass re-evaluates (and reports) it again.
    EXPECT_FALSE(evaluator.IsCached(3));
    EXPECT_EQ(evaluator.DirtyWorkerCount(), 1u);
    ExpectIdentical(results[i], evaluator.EvaluateAll(), "second pass");
  }
  ExpectIdentical(results[0], results[1], "incremental throw");
}

// The same policy through the capture/run/commit steps server::Service
// takes, with responses applied between capture and commit: the
// throwing worker installs nothing, stays stale and is evaluated (and
// reported) again by the next pass, whose result is the final state's.
TEST(ParallelDeterminism, IncrementalThrowAcrossCaptureRunCommit) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  const size_t m = responses.num_workers();
  const size_t n = responses.num_tasks();
  const data::TaskId held_back = n - 10;
  using IndexView = IncrementalEvaluator::IndexView;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    BinaryOptions options;
    options.num_threads = threads;
    ThrowingIncrementalEvaluator evaluator(m, n, options, 3);
    auto feed = [&](data::TaskId begin, data::TaskId end) {
      for (data::TaskId t = begin; t < end; ++t) {
        for (data::WorkerId w = 0; w < m; ++w) {
          auto r = responses.Get(w, t);
          if (!r.has_value()) continue;
          ASSERT_TRUE(evaluator.AddResponse(w, t, *r).ok());
        }
      }
    };
    feed(0, held_back);
    const data::ResponseMatrix at_capture = evaluator.responses();
    IncrementalEvaluator::Pass pass = evaluator.CaptureAll(IndexView::kCopy);
    feed(held_back, n);
    const MWorkerResult first = evaluator.RunAll(&pass);
    evaluator.Commit(std::move(pass));

    // Worker 3 is the one Internal failure; every other worker is
    // evaluated exactly as on `state`.
    auto expect_worker_3_threw = [&](MWorkerResult result,
                                     const data::ResponseMatrix& state) {
      const size_t internal =
          std::erase_if(result.failures, [](const auto& failure) {
            return failure.first == 3 &&
                   failure.second.code() == StatusCode::kInternal;
          });
      EXPECT_EQ(internal, 1u);
      MWorkerResult expected =
          IncrementalEvaluator(state, options).EvaluateAll();
      std::erase_if(expected.assessments, [](const WorkerAssessment& a) {
        return a.worker == 3;
      });
      ExpectIdentical(result, expected, "all but worker 3");
    };
    expect_worker_3_threw(first, at_capture);
    EXPECT_FALSE(evaluator.IsCached(3));

    IncrementalEvaluator::Pass retry = evaluator.CaptureAll(IndexView::kCopy);
    bool retried = false;
    for (const auto& [worker, epoch] : retry.stale) retried |= worker == 3;
    EXPECT_TRUE(retried);
    const MWorkerResult second = evaluator.RunAll(&retry);
    evaluator.Commit(std::move(retry));
    expect_worker_3_threw(second, evaluator.responses());
    EXPECT_FALSE(evaluator.IsCached(3));
    EXPECT_EQ(evaluator.DirtyWorkerCount(), 1u);
    ExpectIdentical(second, evaluator.EvaluateAll(), "after commit");
  }
}

TEST(ParallelDeterminism, EvaluatorConfigThreadsPropagate) {
  data::ResponseMatrix responses = NonRegularMatrixWithFailure();
  CrowdEvaluator::Config serial_config;
  serial_config.binary.num_threads = 1;
  auto serial = CrowdEvaluator(serial_config).EvaluateBinary(responses);
  ASSERT_TRUE(serial.ok());
  CrowdEvaluator::Config parallel_config;
  parallel_config.binary.num_threads = 4;
  auto parallel =
      CrowdEvaluator(parallel_config).EvaluateBinary(responses);
  ASSERT_TRUE(parallel.ok());
  MWorkerResult a{serial->assessments, serial->failures};
  MWorkerResult b{parallel->assessments, parallel->failures};
  ExpectIdentical(a, b, "facade");
}

}  // namespace
}  // namespace crowd::core
