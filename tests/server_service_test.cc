// Tests for the crowdevald serving layer (Service::ExecuteLine and the
// typed entry points): command replies, counter accounting, cache
// hit/miss tracking, and snapshot compaction — all in-process, no
// sockets.

#include "server/service.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/m_worker.h"
#include "core/spammer_filter.h"
#include "gtest/gtest.h"
#include "json_reference.h"
#include "rng/random.h"
#include "server/binary_io.h"
#include "server/protocol.h"
#include "stats_reply.h"

namespace crowd::server {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/crowd_service_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::unique_ptr<Service> OpenInMemory(size_t workers, size_t tasks) {
  ServiceOptions options;
  options.num_workers = workers;
  options.num_tasks = tasks;
  auto service = Service::Open(options);
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

// Fills every cell of the service (and the returned matrix) with a
// deterministic pseudo-random response pattern.
data::ResponseMatrix FillDense(Service* service, size_t workers,
                               size_t tasks, uint64_t seed) {
  data::ResponseMatrix matrix(workers, tasks, 2);
  Random rng(seed);
  for (data::WorkerId w = 0; w < workers; ++w) {
    for (data::TaskId t = 0; t < tasks; ++t) {
      auto v = static_cast<data::Response>(rng.UniformInt(2));
      EXPECT_TRUE(service->Ingest(w, t, v).ok());
      EXPECT_TRUE(matrix.Set(w, t, v).ok());
    }
  }
  return matrix;
}

TEST(ServiceTest, RespAcksWithSequenceNumber) {
  auto service = OpenInMemory(4, 6);
  EXPECT_EQ(service->ExecuteLine("RESP 0 0 1"), "{\"ok\":true,\"seq\":1}");
  EXPECT_EQ(service->ExecuteLine("RESP 1 0 0"), "{\"ok\":true,\"seq\":2}");
  // Identical re-submission is acknowledged but does not advance seq.
  EXPECT_EQ(service->ExecuteLine("RESP 1 0 0"), "{\"ok\":true,\"seq\":2}");
  // Overwriting with a different value is a new accepted response.
  EXPECT_EQ(service->ExecuteLine("RESP 1 0 1"), "{\"ok\":true,\"seq\":3}");

  const std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "responses_ingested"), 3u);
  EXPECT_EQ(StatField(stats, "responses_noop"), 1u);
  EXPECT_EQ(StatField(stats, "responses_rejected"), 0u);
}

TEST(ServiceTest, RespRejectionNamesTheOffendingId) {
  auto service = OpenInMemory(4, 6);
  std::string reply = service->ExecuteLine("RESP 9 0 1");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(reply.find("worker id 9 out of range [0, 4)"),
            std::string::npos);
  reply = service->ExecuteLine("RESP 0 42 1");
  EXPECT_NE(reply.find("task id 42 out of range [0, 6)"),
            std::string::npos);
  reply = service->ExecuteLine("RESP 0 0 5");
  EXPECT_NE(reply.find("response 5"), std::string::npos);
  EXPECT_EQ(StatField(service->ExecuteLine("STATS"), "responses_rejected"),
            3u);
  EXPECT_EQ(service->last_seq(), 0u);
}

TEST(ServiceTest, EvalAllMatchesBatchEvaluatorBitForBit) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kTasks = 20;
  auto service = OpenInMemory(kWorkers, kTasks);
  data::ResponseMatrix matrix =
      FillDense(service.get(), kWorkers, kTasks, 2024);

  auto batch = core::MWorkerEvaluate(matrix, core::BinaryOptions{});
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_FALSE(batch->assessments.empty());
  EXPECT_EQ(service->ExecuteLine("EVAL_ALL"),
            "{\"ok\":true," + MWorkerResultBodyJson(*batch) + "}");

  // A single EVAL carries the same per-worker document.
  const core::WorkerAssessment& first = batch->assessments[0];
  EXPECT_EQ(
      service->ExecuteLine("EVAL " + std::to_string(first.worker)),
      "{\"ok\":true,\"assessment\":" + AssessmentJson(first) + "}");
}

TEST(ServiceTest, EvalTracksCacheHitsAndMisses) {
  auto service = OpenInMemory(6, 12);
  data::ResponseMatrix matrix = FillDense(service.get(), 6, 12, 7);

  // Whether worker 2 evaluates or legitimately fails (no usable
  // triple) is data-dependent; either way the result is computed once
  // and memoized.
  service->ExecuteLine("EVAL 2");
  std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "eval_cache_misses"), 1u);
  EXPECT_EQ(StatField(stats, "eval_cache_hits"), 0u);

  service->ExecuteLine("EVAL 2");  // memoized now
  EXPECT_EQ(StatField(service->ExecuteLine("STATS"), "eval_cache_hits"), 1u);

  // Flip (2, 0) to the opposite value: a real change, so worker 2's
  // cached assessment is invalidated.
  int flipped = 1 - *matrix.Get(2, 0);
  service->ExecuteLine("RESP 2 0 " + std::to_string(flipped));
  service->ExecuteLine("EVAL 2");
  EXPECT_EQ(StatField(service->ExecuteLine("STATS"), "eval_cache_misses"),
            2u);
}

TEST(ServiceTest, RejectedEvalTouchesNoCacheCounter) {
  auto service = OpenInMemory(6, 12);
  FillDense(service.get(), 6, 12, 7);
  const std::string reply = service->ExecuteLine("EVAL 99");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  const std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "eval_cache_hits"), 0u);
  EXPECT_EQ(StatField(stats, "eval_cache_misses"), 0u);
}

TEST(ServiceTest, EvalAllBatchesWritesBetweenEvaluations) {
  // Two disjoint cliques: workers 0-2 on tasks 0-5, workers 3-5 on
  // tasks 6-11. A write inside one clique cannot dirty the other.
  constexpr size_t kWorkers = 6;
  constexpr size_t kTasks = 12;
  auto service = OpenInMemory(kWorkers, kTasks);
  Random rng(11);
  for (data::WorkerId w = 0; w < kWorkers; ++w) {
    for (data::TaskId t = (w < 3) ? 0u : 6u; t < ((w < 3) ? 6u : kTasks);
         ++t) {
      ASSERT_TRUE(
          service
              ->Ingest(w, t, static_cast<data::Response>(rng.UniformInt(2)))
              .ok());
    }
  }

  service->ExecuteLine("EVAL_ALL");
  std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "eval_all_runs"), 1u);
  EXPECT_EQ(StatField(stats, "eval_cache_misses"), kWorkers);

  // A burst of writes in the first clique is absorbed by one pass;
  // the second clique's workers are served from cache.
  service->ExecuteLine("RESP 0 0 0");
  service->ExecuteLine("RESP 0 0 1");  // guaranteed change vs previous line
  service->ExecuteLine("EVAL_ALL");
  stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "eval_all_runs"), 2u);
  EXPECT_GE(StatField(stats, "eval_cache_hits"), 3u)
      << "second clique stayed cached";
}

TEST(ServiceTest, StatsReportsCountersAsJson) {
  auto service = OpenInMemory(5, 9);
  service->ExecuteLine("RESP 0 0 1");
  service->ExecuteLine("RESP 1 0 0");
  service->ExecuteLine("EVAL_ALL");

  std::string reply = service->ExecuteLine("STATS");
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(reply.find("\"num_workers\":5"), std::string::npos);
  EXPECT_NE(reply.find("\"num_tasks\":9"), std::string::npos);
  EXPECT_NE(reply.find("\"total_responses\":2"), std::string::npos);
  EXPECT_NE(reply.find("\"last_seq\":2"), std::string::npos);
  EXPECT_NE(reply.find("\"responses_ingested\":2"), std::string::npos);
  EXPECT_NE(reply.find("\"eval_all_runs\":1"), std::string::npos);
  EXPECT_NE(reply.find("\"dirty_workers\":0"), std::string::npos);
}

TEST(ServiceTest, SnapshotWithoutDataDirIsAnError) {
  auto service = OpenInMemory(3, 3);
  std::string reply = service->ExecuteLine("SNAPSHOT");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(reply.find("data directory"), std::string::npos);
}

TEST(ServiceTest, QuitAndUnknownCommands) {
  auto service = OpenInMemory(3, 3);
  bool quit = false;
  EXPECT_EQ(service->ExecuteLine("QUIT", &quit),
            "{\"ok\":true,\"bye\":true}");
  EXPECT_TRUE(quit);

  quit = true;
  std::string reply = service->ExecuteLine("BOGUS 1 2", &quit);
  EXPECT_FALSE(quit);
  EXPECT_NE(reply.find("unknown command: BOGUS"), std::string::npos);
  EXPECT_NE(service->ExecuteLine("").find("\"ok\":false"),
            std::string::npos);
}

TEST(ServiceTest, SnapshotCommandCompactsJournal) {
  std::string dir = ScratchDir("snapshot_compacts");
  ServiceOptions options;
  options.num_workers = 5;
  options.num_tasks = 10;
  options.data_dir = dir + "/state";
  auto service = Service::Open(options);
  ASSERT_TRUE(service.ok()) << service.status();

  for (int i = 0; i < 10; ++i) {
    (*service)->ExecuteLine(
        "RESP " + std::to_string(i % 5) + " " + std::to_string(i / 5) +
        " 1");
  }
  const std::string before = (*service)->ExecuteLine("STATS");
  EXPECT_EQ(StatField(before, "journal_records"), 10u);

  std::string reply = (*service)->ExecuteLine("SNAPSHOT");
  EXPECT_EQ(reply.find("{\"ok\":true,\"snapshot_seq\":10,"), 0u) << reply;
  const std::string after = (*service)->ExecuteLine("STATS");
  EXPECT_EQ(StatField(after, "journal_records"), 0u);
  EXPECT_EQ(StatField(after, "snapshot_seq"), 10u);
  EXPECT_EQ(StatField(after, "snapshots_written"), 1u);
  EXPECT_LT(StatField(after, "journal_bytes"),
            StatField(before, "journal_bytes"));

  // Post-snapshot writes land in the compacted journal and recovery
  // stitches snapshot + tail back together.
  (*service)->ExecuteLine("RESP 4 9 1");
  std::string expected =
      MWorkerResultBodyJson((*service)->EvaluateAll());
  service->reset();

  ServiceOptions recover;
  recover.data_dir = dir + "/state";
  auto recovered = Service::Open(recover);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->last_seq(), 11u);
  EXPECT_EQ(
      StatField((*recovered)->ExecuteLine("STATS"), "recovered_records"),
      1u);
  EXPECT_EQ(MWorkerResultBodyJson((*recovered)->EvaluateAll()), expected);
}

TEST(ServiceTest, AutomaticSnapshotEveryN) {
  std::string dir = ScratchDir("auto_snapshot");
  ServiceOptions options;
  options.num_workers = 4;
  options.num_tasks = 8;
  options.data_dir = dir + "/state";
  options.snapshot_every = 5;
  auto service = Service::Open(options);
  ASSERT_TRUE(service.ok()) << service.status();

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*service)
                    ->Ingest(static_cast<data::WorkerId>(i % 4),
                             static_cast<data::TaskId>(i / 4), 1)
                    .ok());
  }
  const std::string stats = (*service)->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "snapshots_written"), 2u);
  EXPECT_EQ(StatField(stats, "snapshot_seq"), 10u);
  EXPECT_EQ(StatField(stats, "journal_records"), 2u);
}

TEST(ServiceTest, MetricsCommandExportsPrometheus) {
  auto service = OpenInMemory(5, 9);
  service->ExecuteLine("RESP 0 0 1");
  service->ExecuteLine("RESP 9 0 1");  // rejected: worker out of range
  service->ExecuteLine("EVAL_ALL");

  std::string text = service->ExecuteLine("METRICS");
  // Terminated by an EOF marker line (the one multi-line reply in the
  // protocol).
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "\n# EOF") << text;
  EXPECT_NE(
      text.find("# TYPE crowdeval_server_responses_ingested_total counter"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_server_responses_ingested_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_server_responses_rejected_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("crowdeval_server_command_seconds_bucket{command="
                      "\"EVAL_ALL\",le=\"+Inf\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("crowdeval_server_command_seconds_bucket{command=\"RESP\""),
      std::string::npos)
      << text;
}

TEST(ServiceTest, MetricsListsEveryVerbFromTheStart) {
  auto service = OpenInMemory(3, 3);
  const std::string text = service->MetricsExposition();
  for (const char* verb : {"RESP", "EVAL", "EVAL_ALL", "SPAMMERS", "STATS",
                           "METRICS", "SNAPSHOT", "QUIT"}) {
    std::string series = "crowdeval_server_command_seconds_count{command=\"";
    series.append(verb).append("\"} 0\n");
    EXPECT_NE(text.find(series), std::string::npos)
        << verb << "\n"
        << text;
  }
}

// Hammers STATS/METRICS from readers while writers ingest — the
// regression test for the pre-registry STATS counters, whose
// unsynchronized increments raced. Run under TSan in CI.
TEST(ServiceTest, ConcurrentIngestAndStatsAreRaceFree) {
  auto service = OpenInMemory(8, 64);
  constexpr int kWriters = 4;
  constexpr int kResponsesPerWriter = 2000;
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Random rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kResponsesPerWriter; ++i) {
        auto worker = static_cast<data::WorkerId>(rng.UniformInt(8));
        auto task = static_cast<data::TaskId>(rng.UniformInt(64));
        auto value = static_cast<data::Response>(rng.UniformInt(2));
        EXPECT_TRUE(service->Ingest(worker, task, value).ok());
      }
    });
  }
  std::thread reader([&] {
    while (!done.load()) {
      const std::string stats = service->ExecuteLine("STATS");
      EXPECT_LE(StatField(stats, "responses_ingested") +
                    StatField(stats, "responses_noop"),
                static_cast<uint64_t>(kWriters) * kResponsesPerWriter);
      std::string text = service->ExecuteLine("METRICS");
      EXPECT_NE(text.find("# EOF"), std::string::npos);
    }
  });
  for (auto& t : threads) t.join();
  done.store(true);
  reader.join();

  const std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "responses_ingested") +
                StatField(stats, "responses_noop"),
            static_cast<uint64_t>(kWriters) * kResponsesPerWriter);
  EXPECT_EQ(StatField(stats, "responses_rejected"), 0u);
}

// Each RESP ack must name the seq of its own response, even while
// other connections ingest: writers on disjoint cells collect their
// acks, which must be unique and cover 1..N exactly.
TEST(ServiceTest, ConcurrentRespAcksNameTheirOwnSeq) {
  constexpr size_t kWriters = 4;
  constexpr size_t kWorkersPerWriter = 2;
  constexpr size_t kTasks = 250;
  auto service = OpenInMemory(kWriters * kWorkersPerWriter, kTasks);
  std::vector<std::vector<uint64_t>> acks(kWriters);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      for (data::TaskId t = 0; t < kTasks; ++t) {
        for (size_t k = 0; k < kWorkersPerWriter; ++k) {
          const data::WorkerId w = i * kWorkersPerWriter + k;
          const std::string reply = service->ExecuteLine(
              "RESP " + std::to_string(w) + " " + std::to_string(t) + " " +
              std::to_string((w + t) % 2));
          const std::string prefix = "{\"ok\":true,\"seq\":";
          ASSERT_EQ(reply.compare(0, prefix.size(), prefix), 0) << reply;
          acks[i].push_back(std::stoull(reply.substr(prefix.size())));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<uint64_t> all;
  for (const auto& a : acks) all.insert(all.end(), a.begin(), a.end());
  std::sort(all.begin(), all.end());
  const size_t n = kWriters * kWorkersPerWriter * kTasks;
  ASSERT_EQ(all.size(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(all[i], i + 1) << "duplicate or missing seq";
  }
}

// EVAL and EVAL_ALL evaluate off the service lock, on a copy of the
// statistics taken at their capture, while writers keep ingesting.
// Whatever interleaving happens, a result installed in the cache must
// belong to the state it claims, so once the writers are done EVAL_ALL
// equals the batch evaluation of the final matrix byte for byte. Run
// under TSan in CI.
TEST(ServiceTest, ConcurrentIngestAndEvalMatchFinalState) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kTasks = 120;
  constexpr size_t kWriters = 2;
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.num_tasks = kTasks;
  options.binary.num_threads = 2;
  auto opened = Service::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Service* service = opened->get();

  // Writer i owns workers [i * 4, i * 4 + 4); every cell is written
  // once and a quarter of them are overwritten later.
  std::vector<data::ResponseMatrix> written(
      kWriters, data::ResponseMatrix(kWorkers, kTasks, 2));
  std::atomic<size_t> writers_left{kWriters};
  std::atomic<size_t> evaluations{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kWriters; ++i) {
    threads.emplace_back([&, i] {
      Random rng(300 + i);
      const size_t per_writer = kWorkers / kWriters;
      for (int pass = 0; pass < 2; ++pass) {
        // The overwrites start only once the reader has evaluated, so
        // evaluations and writes surely interleave.
        while (pass == 1 && evaluations.load() < 20) {
          std::this_thread::yield();
        }
        for (data::TaskId t = 0; t < kTasks; ++t) {
          for (size_t k = 0; k < per_writer; ++k) {
            const data::WorkerId w = i * per_writer + k;
            if (pass == 1 && !rng.Bernoulli(0.25)) continue;
            const auto v = static_cast<data::Response>(rng.UniformInt(2));
            const std::string reply = service->ExecuteLine(
                "RESP " + std::to_string(w) + " " + std::to_string(t) +
                " " + std::to_string(v));
            EXPECT_EQ(reply.find("{\"ok\":true,"), 0u) << reply;
            EXPECT_TRUE(written[i].Set(w, t, v).ok());
          }
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  size_t evals = 0, eval_alls = 0;
  std::thread reader([&] {
    Random rng(7);
    while (writers_left.load() > 0) {
      if (rng.Bernoulli(0.25)) {
        const std::string reply = service->ExecuteLine("EVAL_ALL");
        EXPECT_EQ(reply.find("{\"ok\":true,"), 0u) << reply;
        ++eval_alls;
      } else {
        // A worker without a usable triple yet is an ok:false reply.
        const std::string reply = service->ExecuteLine(
            "EVAL " + std::to_string(rng.UniformInt(kWorkers)));
        EXPECT_TRUE(reply.find("{\"ok\":true,") == 0 ||
                    reply.find("\"code\":\"Insufficient data\"") !=
                        std::string::npos)
            << reply;
        ++evals;
      }
      evaluations.fetch_add(1);
    }
  });
  for (auto& t : threads) t.join();
  reader.join();

  data::ResponseMatrix final_state(kWorkers, kTasks, 2);
  for (size_t i = 0; i < kWriters; ++i) {
    for (data::WorkerId w = 0; w < kWorkers; ++w) {
      for (data::TaskId t = 0; t < kTasks; ++t) {
        if (auto v = written[i].Get(w, t)) {
          ASSERT_TRUE(final_state.Set(w, t, *v).ok());
        }
      }
    }
  }
  auto batch = core::MWorkerEvaluate(final_state, options.binary);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(service->ExecuteLine("EVAL_ALL"),
            "{\"ok\":true," + MWorkerResultBodyJson(*batch) + "}");
  // Every requested worker evaluation counted once, as a hit or a miss.
  const std::string stats = service->ExecuteLine("STATS");
  EXPECT_EQ(StatField(stats, "eval_cache_hits") +
                StatField(stats, "eval_cache_misses"),
            evals + (eval_alls + 1) * kWorkers);
  EXPECT_EQ(StatField(stats, "eval_all_runs"), eval_alls + 1);
}

// EVAL_ALL runs its pass on the kernel's shortest scheduler slice (on
// two threads here, the helper inheriting the slice) while two writers
// ingest through the typed entry point. The slice changes when the
// evaluator yields, never what it computes: once the writers are done,
// EVAL_ALL equals that of a twin fed the same responses with no
// evaluation in flight, byte for byte. Run under TSan in CI.
TEST(ServiceTest, EvalAllBesideIngestMatchesQuiescentTwin) {
  constexpr size_t kWorkers = 8;
  constexpr size_t kTasks = 150;
  constexpr size_t kWriters = 2;
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.num_tasks = kTasks;
  options.binary.num_threads = 2;
  auto busy = Service::Open(options);
  auto twin = Service::Open(options);
  ASSERT_TRUE(busy.ok() && twin.ok());

  struct Cell {
    data::WorkerId worker;
    data::TaskId task;
    data::Response value;
  };
  // Writer i owns workers [i * 4, i * 4 + 4) and writes each of their
  // cells once.
  std::vector<std::vector<Cell>> streams(kWriters);
  for (size_t i = 0; i < kWriters; ++i) {
    Random rng(500 + i);
    for (data::TaskId t = 0; t < kTasks; ++t) {
      for (size_t k = 0; k < kWorkers / kWriters; ++k) {
        streams[i].push_back({i * (kWorkers / kWriters) + k, t,
                              static_cast<data::Response>(rng.UniformInt(2))});
      }
    }
  }
  std::atomic<size_t> eval_alls{0};
  std::atomic<size_t> writers_left{kWriters};
  std::vector<std::thread> writers;
  for (size_t i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      for (size_t n = 0; n < streams[i].size(); ++n) {
        // The second half waits for an EVAL_ALL, so passes and writes
        // surely overlap.
        while (n == streams[i].size() / 2 && eval_alls.load() < 3) {
          std::this_thread::yield();
        }
        const Cell& c = streams[i][n];
        EXPECT_TRUE((*busy)->Ingest(c.worker, c.task, c.value).ok());
      }
      writers_left.fetch_sub(1);
    });
  }
  std::thread reader([&] {
    while (writers_left.load() > 0) {
      const std::string reply = (*busy)->ExecuteLine("EVAL_ALL");
      EXPECT_EQ(reply.find("{\"ok\":true,"), 0u) << reply;
      eval_alls.fetch_add(1);
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  for (const std::vector<Cell>& stream : streams) {
    for (const Cell& c : stream) {
      ASSERT_TRUE((*twin)->Ingest(c.worker, c.task, c.value).ok());
    }
  }
  EXPECT_EQ((*busy)->ExecuteLine("EVAL_ALL"), (*twin)->ExecuteLine("EVAL_ALL"));
}

TEST(ServiceTest, SpammersCommandReportsFilteredWorkers) {
  constexpr size_t kWorkers = 5;
  constexpr size_t kTasks = 30;
  auto service = OpenInMemory(kWorkers, kTasks);
  // Workers 0-3 agree on everything; worker 4 contradicts the majority
  // on every task (proxy error 1.0, far above the 0.4 threshold).
  for (data::TaskId t = 0; t < kTasks; ++t) {
    for (data::WorkerId w = 0; w + 1 < kWorkers; ++w) {
      ASSERT_TRUE(service->Ingest(w, t, 1).ok());
    }
    ASSERT_TRUE(service->Ingest(kWorkers - 1, t, 0).ok());
  }
  std::string reply = service->ExecuteLine("SPAMMERS");
  EXPECT_NE(reply.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(reply.find("\"spammers\":[{\"worker\":4,"), std::string::npos)
      << reply;
}

// ---- Bursts against one line at a time ------------------------------

// One random protocol line: new, no-op and out-of-range RESPs (so runs
// mix acks of fresh seqs, acks of the current seq and rejections),
// malformed lines, STATS, EVAL, SNAPSHOT and now and then a QUIT.
std::string RandomLine(Random* rng, size_t workers, size_t tasks,
                       data::ResponseMatrix* sent) {
  const uint64_t kind = rng->UniformInt(100);
  if (kind < 60) {
    auto w = static_cast<data::WorkerId>(rng->UniformInt(workers));
    auto t = static_cast<data::TaskId>(rng->UniformInt(tasks));
    auto v = static_cast<data::Response>(rng->UniformInt(2));
    if (kind < 15) {
      if (auto current = sent->Get(w, t)) v = *current;  // a no-op
    }
    EXPECT_TRUE(sent->Set(w, t, v).ok());
    return "RESP " + std::to_string(w) + " " + std::to_string(t) + " " +
           std::to_string(v);
  }
  if (kind < 66) return "RESP " + std::to_string(workers) + " 0 1";
  if (kind < 70) return "RESP 0 " + std::to_string(tasks) + " 0";
  if (kind < 73) return "RESP 0 0 2";
  if (kind < 76) return "RESP 1 2";
  if (kind < 79) return "BOGUS 7";
  if (kind < 81) return "";
  if (kind < 86) return "STATS";
  if (kind < 93) return "EVAL " + std::to_string(rng->UniformInt(workers));
  if (kind < 97) return "SNAPSHOT";
  return "QUIT";
}

// STATS carries the summed EVAL wall time, which differs between any
// two services; everything else in a reply is deterministic.
std::string MaskEvalMicros(const std::string& replies) {
  const std::string key = "\"eval_micros_total\":";
  std::string masked;
  size_t from = 0;
  for (size_t pos = replies.find(key); pos != std::string::npos;
       pos = replies.find(key, from)) {
    pos += key.size();
    masked.append(replies, from, pos - from);
    masked += '0';
    from = replies.find_first_of(",}", pos);
  }
  masked.append(replies, from, std::string::npos);
  return masked;
}

// Every file of a data directory, by name, with its bytes.
std::map<std::string, std::vector<uint8_t>> DirBytes(const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto bytes = ReadFileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << bytes.status();
    if (bytes.ok()) files[entry.path().filename().string()] = *bytes;
  }
  return files;
}

// Random bursts through ExecuteBurst on one service, and the same lines
// one at a time through ExecuteLine on a twin, the way a connection
// served them before runs: the replies, the journal and snapshot files
// and the final EVAL_ALL must be byte-identical. Each burst ends at its
// first QUIT, as a connection does.
TEST(ServiceTest, BurstsMatchLineByLineByteForByte) {
  constexpr size_t kWorkers = 6;
  constexpr size_t kTasks = 12;
  struct Config {
    uint64_t snapshot_every;
    bool fsync;
  };
  for (const Config config : {Config{0, false}, Config{7, true}}) {
    SCOPED_TRACE(testing::Message()
                 << "snapshot_every " << config.snapshot_every);
    const std::string dir =
        ScratchDir("burst_" + std::to_string(config.snapshot_every));
    ServiceOptions options;
    options.num_workers = kWorkers;
    options.num_tasks = kTasks;
    options.snapshot_every = config.snapshot_every;
    options.fsync_each_append = config.fsync;
    options.data_dir = dir + "/burst";
    auto burst_service = Service::Open(options);
    ASSERT_TRUE(burst_service.ok()) << burst_service.status();
    options.data_dir = dir + "/lines";
    auto line_service = Service::Open(options);
    ASSERT_TRUE(line_service.ok()) << line_service.status();

    Random rng(2024 + config.snapshot_every);
    data::ResponseMatrix sent(kWorkers, kTasks, 2);
    for (int b = 0; b < 150; ++b) {
      std::vector<std::string> lines(1 + rng.UniformInt(40));
      for (std::string& line : lines) {
        line = RandomLine(&rng, kWorkers, kTasks, &sent);
      }
      const std::vector<std::string_view> views(lines.begin(), lines.end());
      std::string burst_replies;
      bool burst_quit = false;
      (*burst_service)->ExecuteBurst(views, &burst_replies, &burst_quit);

      std::string line_replies;
      bool line_quit = false;
      for (const std::string& line : lines) {
        line_replies += (*line_service)->ExecuteLine(line, &line_quit);
        line_replies += '\n';
        if (line_quit) break;
      }
      ASSERT_EQ(burst_quit, line_quit) << "burst " << b;
      ASSERT_EQ(MaskEvalMicros(burst_replies), MaskEvalMicros(line_replies))
          << "burst " << b;
    }
    EXPECT_GT((*line_service)->last_seq(), 100u);
    if (config.snapshot_every > 0) {
      // Many automatic snapshots ran, so some fell inside RESP runs.
      EXPECT_GT(StatField((*burst_service)->ExecuteLine("STATS"),
                          "snapshots_written"),
                10u);
    }
    EXPECT_EQ(DirBytes(dir + "/burst"), DirBytes(dir + "/lines"));
    EXPECT_EQ((*burst_service)->ExecuteLine("EVAL_ALL"),
              (*line_service)->ExecuteLine("EVAL_ALL"));
  }
}

// ---- Replies against the printf oracle -------------------------------

// The STATS fields of `reply`, read back so the reference can print
// them; a reply printed differently from the reference then differs
// from the reference's rendering of its own values.
ReferenceStats ParseStats(const std::string& reply) {
  ReferenceStats s;
  s.num_workers = StatField(reply, "num_workers");
  s.num_tasks = StatField(reply, "num_tasks");
  s.total_responses = StatField(reply, "total_responses");
  s.last_seq = StatField(reply, "last_seq");
  s.dirty_workers = StatField(reply, "dirty_workers");
  s.responses_ingested = StatField(reply, "responses_ingested");
  s.responses_noop = StatField(reply, "responses_noop");
  s.responses_rejected = StatField(reply, "responses_rejected");
  s.eval_cache_hits = StatField(reply, "eval_cache_hits");
  s.eval_cache_misses = StatField(reply, "eval_cache_misses");
  s.eval_all_runs = StatField(reply, "eval_all_runs");
  const std::string micros = "\"eval_micros_total\":";
  const size_t pos = reply.find(micros);
  EXPECT_NE(pos, std::string::npos) << reply;
  if (pos != std::string::npos) {
    s.eval_micros_total =
        std::strtod(reply.c_str() + pos + micros.size(), nullptr);
  }
  s.journal_bytes = static_cast<int64_t>(StatField(reply, "journal_bytes"));
  s.journal_records =
      static_cast<int64_t>(StatField(reply, "journal_records"));
  s.snapshots_written = StatField(reply, "snapshots_written");
  s.snapshot_seq = static_cast<int64_t>(StatField(reply, "snapshot_seq"));
  s.recovered_records = StatField(reply, "recovered_records");
  s.recovery_truncated_bytes = StatField(reply, "recovery_truncated_bytes");
  return s;
}

TEST(ServiceTest, RepliesMatchReferenceByteForByte) {
  constexpr size_t kWorkers = 7;
  constexpr size_t kTasks = 40;
  ServiceOptions options;
  options.num_workers = kWorkers;
  options.num_tasks = kTasks;
  options.data_dir = ScratchDir("reference_replies") + "/state";
  auto opened = Service::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Service& service = **opened;

  // RESP acks: new responses, an identical re-submission (acked with
  // the current seq) and an overwrite.
  data::ResponseMatrix matrix(kWorkers, kTasks, 2);
  Random rng(99);
  uint64_t seq = 0;
  for (data::TaskId t = 0; t < kTasks; ++t) {
    for (data::WorkerId w = 0; w < kWorkers; ++w) {
      // Worker 6 answers against workers 0-5 often: a spammer.
      const uint64_t truth = t % 2;
      auto v = static_cast<data::Response>(
          w + 1 == kWorkers ? rng.UniformInt(2)
                            : truth ^ (rng.UniformInt(8) == 0 ? 1 : 0));
      const std::string line = "RESP " + std::to_string(w) + " " +
                               std::to_string(t) + " " + std::to_string(v);
      ASSERT_EQ(service.ExecuteLine(line), ReferenceRespReply(++seq));
      ASSERT_EQ(service.ExecuteLine(line), ReferenceRespReply(seq));
      ASSERT_TRUE(matrix.Set(w, t, v).ok());
    }
  }
  EXPECT_EQ(service.ExecuteLine("RESP 0 0 1"), ReferenceRespReply(++seq));
  ASSERT_TRUE(matrix.Set(0, 0, 1).ok());
  EXPECT_EQ(service.ExecuteLine("RESP 99 0 1"),
            ReferenceErrorJson(service.Ingest(99, 0, 1)));

  service.ExecuteLine("EVAL 2");
  service.ExecuteLine("EVAL_ALL");
  service.ExecuteLine("EVAL 2");

  auto filtered = core::FilterSpammers(matrix, core::SpammerFilterOptions{});
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_FALSE(filtered->removed.empty());
  EXPECT_EQ(service.ExecuteLine("SPAMMERS"),
            ReferenceSpammersReply(core::SpammerFilterOptions{}.threshold,
                                   filtered->removed,
                                   filtered->proxy_error));

  std::string stats = service.ExecuteLine("STATS");
  EXPECT_GT(ParseStats(stats).eval_micros_total, 0.0);
  EXPECT_EQ(stats, ReferenceStatsReply(ParseStats(stats)));

  const std::string snapshot = service.ExecuteLine("SNAPSHOT");
  stats = service.ExecuteLine("STATS");
  const ReferenceStats after = ParseStats(stats);
  EXPECT_EQ(snapshot, ReferenceSnapshotReply(seq, after.journal_bytes));
  EXPECT_EQ(stats, ReferenceStatsReply(after));
  EXPECT_EQ(after.snapshots_written, 1u);
}

}  // namespace
}  // namespace crowd::server
