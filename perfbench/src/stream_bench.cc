// The stream workloads, `ingest` and `mixed`: the real crowdevald on a
// unix socket, restarted on a fresh copy of a seeded data directory,
// driven by writer (and reader) connections from this process.

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/m_worker.h"
#include "crowds.h"
#include "daemon.h"
#include "server/protocol.h"
#include "stream_common.h"

namespace perfbench {

namespace {

crowd::core::MWorkerResult ReferenceResult(
    const crowd::data::ResponseMatrix& matrix) {
  auto result = crowd::core::MWorkerEvaluate(matrix, {});
  if (!result.ok()) {
    Die("reference MWorkerEvaluate: " + result.status().ToString());
  }
  return std::move(*result);
}

std::string EvalAllReply(const crowd::core::MWorkerResult& result) {
  return "{\"ok\":true," + crowd::server::MWorkerResultBodyJson(result) + "}";
}

/// Final-state check: EVAL_ALL over the socket must equal the in-process
/// reference byte for byte.
void CheckEvalAll(const Daemon& daemon, const std::string& reference,
                  Report* report, Tally* tally) {
  LineClient client(daemon.socket_path());
  std::string reply;
  tally->Attempt();
  if (!client.Call("EVAL_ALL\n", &reply)) {
    tally->Fail("final EVAL_ALL: no reply");
    return;
  }
  if (reply != reference) {
    tally->Fail("final EVAL_ALL differs from in-process MWorkerEvaluate");
  }
  report->InfoText("digest.eval_all", Hex(Fnv1a(reply)));
}

long long StatsField(const Daemon& daemon, const char* key) {
  LineClient client(daemon.socket_path());
  std::string reply;
  if (!client.Call("STATS\n", &reply)) return -1;
  return JsonInt(reply, key);
}

}  // namespace

/// Restarts whose median is mixed's setup_s; the small seeded dir
/// restarts in ~0.1 s, so many samples are cheap.
constexpr int kMixedRestarts = 15;

size_t MixedTasks(double seconds) {
  // Unseeded half must hold rate * seconds * 1.2 responses.
  const double per_task = kMixedWorkers * kStreamDensity;
  const double needed = kMixedRespPerS * seconds * 1.2 / per_task;
  return std::max(kMixedMinTasks, 2 * static_cast<size_t>(std::ceil(needed)));
}

void RunIngest(const Options& options, Report* report, Tally* tally) {
  const std::string run_dir = MakeRunDir("ingest");
  SeededStream s =
      MakeSeededStream(kIngestWorkers, kIngestTasks, options.seed, run_dir);
  const crowd::core::MWorkerResult reference = ReferenceResult(s.crowd.matrix);
  const uint64_t per_round =
      s.writer_lines[0].size() + s.writer_lines[1].size();

  report->Info("host.calib_ms.start", CalibrationMs());
  std::vector<double> setup_s, rss_mb, latency_us, round_rate;
  double acks = 0.0, window_s = 0.0, daemon_cpu_s = 0.0;
  uint64_t dup_seqs = 0, noops = 0, ingested_mismatch = 0;
  std::unique_ptr<Daemon> daemon;
  const Clock::time_point start = Clock::now();
  int round = 0;
  while (round < 3 || SecondsSince(start) < options.seconds) {
    if (daemon) daemon->Kill();
    const std::string dir = run_dir + "/round" + std::to_string(round % 2);
    daemon = StartOnFreshCopy(options, s, dir, report);
    setup_s.push_back(daemon->setup_s());
    const double cpu0 = CpuSeconds(daemon->pid());

    ConnectionResult writers[2];
    std::thread threads[2];
    for (int k = 0; k < 2; ++k) {
      threads[k] = std::thread(ClosedLoopWriter, daemon->socket_path(),
                               std::cref(s.writer_lines[k]), &writers[k]);
    }
    for (auto& t : threads) t.join();
    const double cpu1 = CpuSeconds(daemon->pid());

    Clock::time_point first = std::min(writers[0].start, writers[1].start);
    Clock::time_point last = std::max(writers[0].end, writers[1].end);
    std::vector<uint64_t> seqs;
    double round_acks = 0.0;
    for (int k = 0; k < 2; ++k) {
      const ConnectionResult& w = writers[k];
      w.ReportFailures(tally, s.writer_lines[k].size());
      latency_us.insert(latency_us.end(), w.latency_us.begin(),
                        w.latency_us.end());
      seqs.insert(seqs.end(), w.seqs.begin(), w.seqs.end());
      round_acks += static_cast<double>(w.acked_ok);
    }
    dup_seqs += CountDuplicates(&seqs);
    acks += round_acks;
    window_s += SecondsBetween(first, last);
    round_rate.push_back(round_acks / SecondsBetween(first, last));
    daemon_cpu_s += cpu1 - cpu0;
    const long long noop = StatsField(*daemon, "responses_noop");
    const long long ingested = StatsField(*daemon, "responses_ingested");
    noops += static_cast<uint64_t>(std::max(0LL, noop));
    if (ingested != static_cast<long long>(per_round)) ++ingested_mismatch;
    rss_mb.push_back(PeakRssMb(daemon->pid()));
    ++round;
  }
  CheckEvalAll(*daemon, EvalAllReply(reference), report, tally);
  daemon->Kill();
  report->Info("host.calib_ms.end", CalibrationMs());

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("ops_per_s", Median(round_rate), "1/s");
  report->Metric("op_p50_us", Quantile(latency_us, 0.5), "us");
  report->Metric("peak_rss_mb", Median(rss_mb), "MB");

  report->Info("rounds", round);
  report->Info("resp_p90_us", Quantile(latency_us, 0.9));
  report->Info("resp_per_s.pooled", acks / window_s);
  report->Info("resp_p99_us", Quantile(latency_us, 0.99));
  report->Info("resp_samples", static_cast<double>(latency_us.size()));
  report->Info("server.service.ack_seq_dup", static_cast<double>(dup_seqs));
  report->Info("daemon.cpu_us_per_resp", daemon_cpu_s * 1e6 / acks);
  report->Info("ingest.noop_responses", static_cast<double>(noops));
  report->Check("ingest_noop_share_zero", noops == 0);
  report->Check("triples_match_pool",
                TriplesMatchPool(reference.assessments, kIngestWorkers));
  report->Check("ingest_every_resp_ingested", ingested_mismatch == 0);
  report->Info("ci_coverage_gap",
               BinaryCoverageGap(reference.assessments,
                                 s.crowd.true_error_rates, 0.95));
  RemoveTree(run_dir);
}

void RunMixed(const Options& options, Report* report, Tally* tally) {
  const std::string run_dir = MakeRunDir("mixed");
  const size_t tasks = MixedTasks(options.seconds);
  SeededStream s =
      MakeSeededStream(kMixedWorkers, tasks, options.seed, run_dir);

  report->Info("host.calib_ms.start", CalibrationMs());
  // Set-up is measured over several restarts; the last daemon serves.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kMixedRestarts; ++i) {
    if (daemon) daemon->Kill();
    daemon = StartOnFreshCopy(options, s, run_dir + "/serve" +
                                              std::to_string(i % 2), report);
    setup_s.push_back(daemon->setup_s());
  }

  const MixedPlan plan = BuildMixedPlan(s, options.seconds, options.seed);
  const std::vector<Scheduled>& reader_plan = plan.reader;

  const double cpu0 = CpuSeconds(daemon->pid());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  OpenLoopResult writers[2], reader;
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < 2; ++k) {
      threads.emplace_back(OpenLoopConnection, daemon->socket_path(), t0,
                           std::cref(plan.writer[k]),
                           std::cref(s.writer_lines[k]), &writers[k]);
    }
    threads.emplace_back(OpenLoopConnection, daemon->socket_path(), t0,
                         std::cref(reader_plan), std::cref(plan.reader_lines),
                         &reader);
    for (auto& t : threads) t.join();
  }
  const double cpu1 = CpuSeconds(daemon->pid());

  // Outstanding EVAL_ALL intervals, for the stall classification.
  std::vector<std::pair<double, double>> eval_all_busy;
  std::vector<double> eval_us, eval_all_ms, late_us;
  for (size_t i = 0; i < reader_plan.size(); ++i) {
    if (i >= reader.reply_s.size()) break;
    late_us.push_back(reader.late_us[i]);
    if (reader_plan[i].kind == Scheduled::kEvalAll) {
      eval_all_busy.push_back({reader.sent_s[i], reader.reply_s[i]});
      eval_all_ms.push_back((reader.reply_s[i] - reader_plan[i].due) * 1e3);
    } else {
      eval_us.push_back((reader.reply_s[i] - reader_plan[i].due) * 1e6);
    }
  }
  reader.ReportFailures(tally, reader_plan.size());

  std::vector<double> resp_us, stall_us;
  std::vector<uint64_t> seqs;
  double last_reply = 0.0;
  uint64_t resp_acks = 0;
  for (int k = 0; k < 2; ++k) {
    writers[k].ReportFailures(tally, plan.writer[k].size());
    seqs.insert(seqs.end(), writers[k].seqs.begin(), writers[k].seqs.end());
    resp_acks += writers[k].acked_ok;
    for (size_t i = 0; i < writers[k].reply_s.size(); ++i) {
      const double due = plan.writer[k][i].due;
      const double lat = (writers[k].reply_s[i] - due) * 1e6;
      late_us.push_back(writers[k].late_us[i]);
      resp_us.push_back(lat);
      last_reply = std::max(last_reply, writers[k].reply_s[i]);
      auto it = std::upper_bound(
          eval_all_busy.begin(), eval_all_busy.end(),
          std::make_pair(due, 1e300));
      if (it != eval_all_busy.begin() && due <= std::prev(it)->second) {
        stall_us.push_back(lat);
      }
    }
  }
  const uint64_t dup_seqs = CountDuplicates(&seqs);

  // Final state = seeded half + every RESP sent; writers own disjoint
  // workers, so interleaving does not matter.
  crowd::data::ResponseMatrix final_matrix(kMixedWorkers, tasks, 2);
  for (size_t t = 0; t < s.seeded_tasks; ++t) {
    for (size_t w = 0; w < kMixedWorkers; ++w) {
      if (auto v = s.crowd.matrix.Get(w, t)) {
        final_matrix.Set(w, t, *v).AbortIfNotOk();
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    for (size_t i = 0; i < writers[k].reply_s.size(); ++i) {
      const Cell& c = s.writer_cells[k][i];
      final_matrix.Set(c.worker, c.task, c.value).AbortIfNotOk();
    }
  }
  const crowd::core::MWorkerResult reference = ReferenceResult(final_matrix);
  CheckEvalAll(*daemon, EvalAllReply(reference), report, tally);
  const double rss = PeakRssMb(daemon->pid());
  daemon->Kill();
  report->Info("host.calib_ms.end", CalibrationMs());

  // Mixed's operations are the writes that arrive while an EVAL_ALL is
  // outstanding: the writer stall. Every RESP's latency is informational.
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("ops_per_s", static_cast<double>(resp_acks) / last_reply,
                 "1/s");
  report->Metric("op_p50_us", Quantile(stall_us, 0.5), "us");
  report->Metric("peak_rss_mb", rss, "MB");

  report->Info("tasks", static_cast<double>(tasks));
  report->Info("setup_s.min", Quantile(setup_s, 0.0));
  report->Info("setup_s.max", Quantile(setup_s, 1.0));
  report->Info("resp_p50_us", Quantile(resp_us, 0.5));
  report->Info("resp_p90_us", Quantile(resp_us, 0.9));
  report->Info("resp_p99_us", Quantile(resp_us, 0.99));
  report->Info("resp_stall_p90_us", Quantile(stall_us, 0.9));
  report->Info("resp_stall_samples", static_cast<double>(stall_us.size()));
  report->Info("eval_p50_us", Quantile(eval_us, 0.5));
  report->Info("eval_p90_us", Quantile(eval_us, 0.9));
  report->Info("eval_all_p50_ms", Quantile(eval_all_ms, 0.5));
  report->Info("eval_all_p90_ms", Quantile(eval_all_ms, 0.9));
  report->Info("eval_all_samples", static_cast<double>(eval_all_ms.size()));
  report->Info("server.service.ack_seq_dup", static_cast<double>(dup_seqs));
  report->Info("daemon.cpu_us_per_resp",
               (cpu1 - cpu0) * 1e6 / static_cast<double>(resp_acks));
  const double late_p90 = Quantile(late_us, 0.9);
  report->Info("loadgen.late_p90_us", late_p90);
  report->Info("ci_coverage_gap",
               BinaryCoverageGap(reference.assessments,
                                 s.crowd.true_error_rates, 0.95));
  report->Check("triples_match_pool",
                TriplesMatchPool(reference.assessments, kMixedWorkers));
  report->Check("mixed_schedule_lag_below_eval_period",
                late_p90 < 1e6 / kMixedEvalPerS);
  RemoveTree(run_dir);
}

}  // namespace perfbench
