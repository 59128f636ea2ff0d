// The traced run (--trace 1). It replays every workload's generated
// inputs in-process, single-threaded and in schedule order, through the
// public calls of each layer, and times those calls with spans recorded
// from this file only (obs::internal::RecordSpan; no span inside the
// program is switched on). Each workload is replayed three times:
//   A  the workload's surface calls, untraced (the end-to-end time);
//   B  the same calls, each wrapped in a span (A vs B = tracing overhead);
//   C  the layer calls one by one, each in its own span (self times).
// The share of A's time that no layer of C accounts for is reported as
// trace.<workload>.unaccounted_share. Spans are kept in memory and
// written as a chrome trace to .bench_build/traces/ at the end.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/evaluator.h"
#include "core/incremental.h"
#include "core/kary_estimator.h"
#include "core/kary_m_worker.h"
#include "core/m_worker.h"
#include "core/prob_estimate.h"
#include "core/three_worker.h"
#include "core/triple_combiner.h"
#include "core/triple_selection.h"
#include "crowds.h"
#include "daemon.h"
#include "data/overlap_index.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/journal.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshot.h"
#include "stream_common.h"

namespace perfbench {

namespace {

using crowd::server::Service;

/// Spans per name written to the chrome trace; statistics keep all.
constexpr size_t kTraceEventsPerName = 2000;
/// Stream events per interleaved block of passes A, B and C.
constexpr size_t kBlock = 256;
/// Interleaved A/B/C repetitions of each batch workload.
constexpr int kBatchTraceReps = 3;

/// Nested spans with self time (duration minus covered children).
class Tracer {
 public:
  struct Stat {
    std::vector<double> ns;  ///< durations
    double self_ns = 0.0;
    size_t recorded = 0;
  };

  void Begin(const char* name) {
    stack_.push_back({name, crowd::obs::TraceNowNanos(), 0});
  }
  void End() {
    const uint64_t end = crowd::obs::TraceNowNanos();
    const Open open = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - open.start;
    Stat& stat = stats_[open.name];
    stat.ns.push_back(static_cast<double>(dur));
    stat.self_ns += static_cast<double>(dur - std::min(dur, open.child_ns));
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (stat.recorded++ < kTraceEventsPerName) {
      crowd::obs::internal::RecordSpan(open.name, open.start, end);
    }
  }

  const Stat& Get(std::string_view name) const {
    static const Stat kEmpty;
    auto it = stats_.find(name);
    return it == stats_.end() ? kEmpty : it->second;
  }
  double MedianUs(std::string_view name) const {
    return Median(Get(name).ns) / 1e3;
  }
  double TotalS(std::string_view name) const {
    return Sum(Get(name).ns) / 1e9;
  }
  double SelfS(std::string_view name) const {
    return Get(name).self_ns / 1e9;
  }

 private:
  struct Open {
    const char* name;
    uint64_t start;
    uint64_t child_ns;
  };
  std::vector<Open> stack_;
  std::unordered_map<std::string_view, Stat> stats_;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    tracer_->Begin(name);
  }
  ~Span() { tracer_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

std::string FileWithExtension(const std::string& dir, const std::string& ext) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ext) return entry.path().string();
  }
  Die("no *" + ext + " file in " + dir);
}

std::unique_ptr<Service> OpenService(const std::string& dir) {
  crowd::server::ServiceOptions options;
  options.data_dir = dir;
  auto service = Service::Open(options);
  if (!service.ok()) Die("Service::Open: " + service.status().ToString());
  return std::move(*service);
}

std::unique_ptr<Service> OpenFreshService(const SeededStream& s,
                                          const std::string& dir) {
  CopyTree(s.seed_dir, dir);
  return OpenService(dir);
}

/// An IncrementalEvaluator holding the seeded half of a stream.
std::unique_ptr<crowd::core::IncrementalEvaluator> SeededEvaluator(
    const SeededStream& s) {
  const auto& m = s.crowd.matrix;
  auto e = std::make_unique<crowd::core::IncrementalEvaluator>(
      m.num_workers(), m.num_tasks());
  for (const Cell& c :
       CellsInTaskOrder(m, 0, s.seeded_tasks, 0, m.num_workers())) {
    e->AddResponse(c.worker, c.task, c.value).AbortIfNotOk();
  }
  return e;
}

/// Per-workload outputs: tracing overhead and unaccounted share.
struct WorkloadShares {
  double overhead = 0.0;
  double unaccounted = 0.0;
};

WorkloadShares Shares(double untraced_s, double traced_s, double layers_s) {
  return {traced_s / untraced_s - 1.0, 1.0 - layers_s / untraced_s};
}

// ---------------------------------------------------------------- ingest

WorkloadShares TraceIngest(const Options& options, const std::string& run_dir,
                           Tracer* tr, Report* report, Tally* tally) {
  Span workload(tr, "workload.ingest");
  SeededStream s = MakeSeededStream(kIngestWorkers, kIngestTasks,
                                    options.seed, run_dir + "/ingest");
  const auto& m = s.crowd.matrix;
  const std::vector<Cell> stream =
      CellsInTaskOrder(m, s.seeded_tasks, m.num_tasks(), 0, m.num_workers());
  LineBatch lines;
  for (const Cell& c : stream) lines.Add(RespLine(c));
  auto line_of = [&](size_t i) {
    std::string_view l = lines.Line(i);
    return l.substr(0, l.size() - 1);  // without '\n'
  };

  // Set-up layers.
  for (int i = 0; i < 3; ++i) {
    const std::string dir = run_dir + "/open";
    CopyTree(s.seed_dir, dir);
    std::unique_ptr<Service> svc;
    Span span(tr, "server.service.open");
    svc = OpenService(dir);
  }
  const std::string snapshot = FileWithExtension(s.seed_dir, ".crws");
  for (int i = 0; i < 3; ++i) {
    Span span(tr, "server.snapshot.load");
    if (!crowd::server::LoadSnapshot(snapshot).ok()) {
      Die("LoadSnapshot failed on the seeded snapshot");
    }
  }
  const std::string journal_bytes =
      ReadFile(FileWithExtension(s.seed_dir, ".crwj"));
  for (int i = 0; i < 3; ++i) {
    Span span(tr, "server.journal.replay");
    auto replay = crowd::server::ReplayJournalBytes(
        reinterpret_cast<const uint8_t*>(journal_bytes.data()),
        journal_bytes.size(), "seeded journal");
    if (!replay.ok() || replay->records.size() != s.tail_records) {
      Die("ReplayJournalBytes did not return the seeded tail");
    }
  }
  std::vector<Cell> seeded;
  for (size_t w = 0; w < m.num_workers(); ++w) {
    for (size_t t = 0; t < s.seeded_tasks; ++t) {
      if (auto v = m.Get(w, t)) {
        seeded.push_back({static_cast<uint32_t>(w), static_cast<uint32_t>(t),
                          *v});
      }
    }
  }
  for (int i = 0; i < 3; ++i) {
    crowd::core::IncrementalEvaluator e(m.num_workers(), m.num_tasks());
    Span span(tr, "core.incremental.recover_apply");
    for (const Cell& c : seeded) {
      e.AddResponse(c.worker, c.task, c.value).AbortIfNotOk();
    }
  }

  // A, B and C advance through the stream together, block by block, so
  // the host's speed phases weigh on all three alike.
  auto svc_a = OpenFreshService(s, run_dir + "/passA");
  auto svc_b = OpenFreshService(s, run_dir + "/passB");
  auto evaluator = SeededEvaluator(s);
  crowd::data::ResponseMatrix matrix = evaluator->responses();
  crowd::data::OverlapIndex overlap(matrix);
  crowd::server::JournalHeader header;
  header.num_workers = static_cast<uint32_t>(m.num_workers());
  header.num_tasks = static_cast<uint32_t>(m.num_tasks());
  auto journal =
      crowd::server::Journal::Create(run_dir + "/layer.crwj", header);
  if (!journal.ok()) Die("Journal::Create: " + journal.status().ToString());
  const uint64_t journal_bytes0 = journal->file_bytes();
  crowd::obs::Registry registry;
  double untraced_s = 0.0, traced_s = 0.0;
  for (size_t begin = 0; begin < stream.size(); begin += kBlock) {
    const size_t end = std::min(stream.size(), begin + kBlock);
    Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      if (!ReplyOk(svc_a->ExecuteLine(line_of(i)))) Die("pass A RESP failed");
    }
    untraced_s += SecondsSince(t0);
    t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      Span span(tr, "server.service.resp");
      tally->Attempt();
      if (!ReplyOk(svc_b->ExecuteLine(line_of(i)))) {
        tally->Fail("replayed RESP");
      }
    }
    traced_s += SecondsSince(t0);
    for (size_t i = begin; i < end; ++i) {
      const Cell& c = stream[i];
      {
        Span span(tr, "server.protocol.parse");
        if (!crowd::server::ParseCommand(line_of(i)).ok()) Die("parse");
      }
      {
        Span span(tr, "core.incremental.add_response");
        evaluator->AddResponse(c.worker, c.task, c.value).AbortIfNotOk();
      }
      matrix.Set(c.worker, c.task, c.value).AbortIfNotOk();
      {
        Span span(tr, "data.overlap.apply_response");
        overlap.ApplyResponse(c.worker, c.task, std::nullopt).AbortIfNotOk();
      }
      {
        Span span(tr, "server.journal.append");
        journal->Append({i + 1, c.worker, c.task, c.value}).AbortIfNotOk();
      }
      {
        Span span(tr, "obs.metrics.record_command");
        registry
            .GetHistogram("crowdeval_server_command_seconds",
                          "wall time of one protocol command",
                          crowd::obs::Histogram::LatencyBounds(), "command",
                          "RESP")
            ->Record(1e-6);
      }
    }
  }
  report->Metric("server.journal.bytes_per_resp",
                 static_cast<double>(journal->file_bytes() - journal_bytes0) /
                     static_cast<double>(stream.size()),
                 "bytes");

  // Socket: RESP round trip at depth 1, then two pipelined writers for
  // the duplicate-ack count and the daemon's CPU per RESP.
  {
    auto daemon = StartOnFreshCopy(options, s, run_dir + "/ingest-daemon",
                                   report);
    LineClient client(daemon->socket_path());
    const size_t rtt_n = std::min<size_t>(10000, s.writer_lines[0].size() / 4);
    std::vector<double> rtt_us;
    std::string reply;
    for (size_t i = 0; i < rtt_n; ++i) {
      const Clock::time_point t0 = Clock::now();
      tally->Attempt();
      if (!client.Call(s.writer_lines[0].Line(i), &reply) || !ReplyOk(reply)) {
        tally->Fail("depth-1 RESP");
      }
      rtt_us.push_back(SecondsSince(t0) * 1e6);
    }
    LineBatch rest[2];
    for (size_t i = rtt_n; i < s.writer_lines[0].size(); ++i) {
      rest[0].Add(s.writer_lines[0].Line(i));
    }
    for (size_t i = 0; i < s.writer_lines[1].size(); ++i) {
      rest[1].Add(s.writer_lines[1].Line(i));
    }
    const double cpu0 = CpuSeconds(daemon->pid());
    ConnectionResult writers[2];
    std::thread threads[2];
    for (int k = 0; k < 2; ++k) {
      threads[k] = std::thread(ClosedLoopWriter, daemon->socket_path(),
                               std::cref(rest[k]), &writers[k]);
    }
    for (auto& t : threads) t.join();
    const double cpu1 = CpuSeconds(daemon->pid());
    std::vector<uint64_t> seqs;
    uint64_t acks = 0;
    for (int k = 0; k < 2; ++k) {
      writers[k].ReportFailures(tally, rest[k].size());
      seqs.insert(seqs.end(), writers[k].seqs.begin(), writers[k].seqs.end());
      acks += writers[k].acked_ok;
    }
    daemon->Kill();
    report->Metric("server.socket.resp_rtt_us",
                   Median(rtt_us) - tr->MedianUs("server.service.resp"), "us");
    report->Metric("server.service.ack_seq_dup",
                   static_cast<double>(CountDuplicates(&seqs)), "count");
    report->Metric("daemon.cpu_us_per_resp",
                   (cpu1 - cpu0) * 1e6 / static_cast<double>(acks), "us");
  }

  report->Metric("server.service.open_ms",
                 tr->MedianUs("server.service.open") / 1e3, "ms");
  report->Metric("server.snapshot.load_ms",
                 tr->MedianUs("server.snapshot.load") / 1e3, "ms");
  report->Metric("server.journal.replay_ms",
                 tr->MedianUs("server.journal.replay") / 1e3, "ms");
  report->Metric("core.incremental.recover_apply_ms",
                 tr->MedianUs("core.incremental.recover_apply") / 1e3, "ms");
  report->Metric("server.service.resp_us",
                 tr->MedianUs("server.service.resp"), "us");
  report->Metric("server.protocol.parse_ns",
                 tr->MedianUs("server.protocol.parse") * 1e3, "ns");
  report->Metric("core.incremental.add_response_us",
                 tr->MedianUs("core.incremental.add_response"), "us");
  report->Metric("data.overlap.apply_response_us",
                 tr->MedianUs("data.overlap.apply_response"), "us");
  report->Metric("server.journal.append_us",
                 tr->MedianUs("server.journal.append"), "us");
  report->Metric("obs.metrics.record_command_ns",
                 tr->MedianUs("obs.metrics.record_command") * 1e3, "ns");
  // The RESP path's layers: parse, AddResponse (which includes the
  // overlap update), journal append, command metrics.
  const double layers_s = tr->SelfS("server.protocol.parse") +
                          tr->SelfS("core.incremental.add_response") +
                          tr->SelfS("server.journal.append") +
                          tr->SelfS("obs.metrics.record_command");
  return Shares(untraced_s, traced_s, layers_s);
}

// ----------------------------------------------------------------- mixed

struct MixedEvent {
  double due;
  Scheduled::Kind kind;
  const Cell* cell;         ///< RESP
  std::string_view line;    ///< protocol line with '\n'
};

WorkloadShares TraceMixed(const Options& options, const std::string& run_dir,
                          Tracer* tr, Report* report, Tally* tally) {
  Span workload(tr, "workload.mixed");
  const double schedule_s = std::max(2.0, options.seconds / 2.0);
  SeededStream s = MakeSeededStream(kMixedWorkers, MixedTasks(schedule_s),
                                    options.seed, run_dir + "/mixed");
  const MixedPlan plan = BuildMixedPlan(s, schedule_s, options.seed);
  std::vector<MixedEvent> events;
  for (int k = 0; k < 2; ++k) {
    for (const Scheduled& e : plan.writer[k]) {
      events.push_back({e.due, e.kind, &s.writer_cells[k][e.line],
                        s.writer_lines[k].Line(e.line)});
    }
  }
  for (const Scheduled& e : plan.reader) {
    events.push_back({e.due, e.kind, nullptr, plan.reader_lines.Line(e.line)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MixedEvent& a, const MixedEvent& b) {
                     return a.due < b.due;
                   });
  auto strip = [](std::string_view l) { return l.substr(0, l.size() - 1); };

  auto svc_a = OpenFreshService(s, run_dir + "/mixedA");
  auto svc_b = OpenFreshService(s, run_dir + "/mixedB");
  auto evaluator = SeededEvaluator(s);
  std::vector<double> dirtied, stale;
  size_t evals = 0, hits = 0;
  bool sample_next_resp = false;
  double untraced_s = 0.0, traced_s = 0.0;
  for (size_t begin = 0; begin < events.size(); begin += kBlock) {
    const size_t end = std::min(events.size(), begin + kBlock);
    Clock::time_point t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      if (!ReplyOk(svc_a->ExecuteLine(strip(events[i].line)))) {
        Die("mixed pass A");
      }
    }
    untraced_s += SecondsSince(t0);
    t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      const MixedEvent& e = events[i];
      const char* name =
          e.kind == Scheduled::kResp   ? "server.service.resp"
          : e.kind == Scheduled::kEval ? "server.service.eval"
                                       : "server.service.eval_all";
      Span span(tr, name);
      tally->Attempt();
      if (!ReplyOk(svc_b->ExecuteLine(strip(e.line)))) {
        tally->Fail("replayed mixed command");
      }
    }
    traced_s += SecondsSince(t0);
    // Layer calls on a third evaluator kept in lockstep.
    for (size_t i = begin; i < end; ++i) {
      const MixedEvent& e = events[i];
      if (e.kind == Scheduled::kResp) {
        {
          Span span(tr, "core.incremental.add_response");
          evaluator->AddResponse(e.cell->worker, e.cell->task, e.cell->value)
              .AbortIfNotOk();
        }
        if (sample_next_resp) {
          dirtied.push_back(static_cast<double>(evaluator->DirtyWorkerCount()));
          sample_next_resp = false;
        }
      } else if (e.kind == Scheduled::kEval) {
        const auto worker = static_cast<crowd::data::WorkerId>(
            std::strtoull(e.line.data() + 5, nullptr, 10));
        ++evals;
        if (evaluator->IsCached(worker)) ++hits;
        crowd::Result<crowd::core::WorkerAssessment> a =
            crowd::Status::Internal("unset");
        {
          Span span(tr, "core.incremental.evaluate");
          a = evaluator->Evaluate(worker);
        }
        if (!a.ok()) Die("EVAL failed in the mixed replay");
        Span span(tr, "server.protocol.assessment_json");
        (void)crowd::server::AssessmentJson(*a);
      } else {
        stale.push_back(static_cast<double>(evaluator->DirtyWorkerCount()));
        crowd::core::MWorkerResult all;
        {
          Span span(tr, "core.incremental.evaluate_all");
          all = evaluator->EvaluateAll();
        }
        {
          Span span(tr, "server.protocol.eval_all_json");
          (void)crowd::server::MWorkerResultBodyJson(all);
        }
        sample_next_resp = true;
      }
    }
  }
  report->Metric("server.service.eval_us", tr->MedianUs("server.service.eval"),
                 "us");
  report->Metric("server.service.eval_all_ms",
                 tr->MedianUs("server.service.eval_all") / 1e3, "ms");
  report->Metric("server.service.lock_busy_share",
                 (tr->TotalS("server.service.eval") +
                  tr->TotalS("server.service.eval_all")) /
                     schedule_s,
                 "share");
  report->Metric("server.protocol.assessment_json_us",
                 tr->MedianUs("server.protocol.assessment_json"), "us");
  report->Metric("server.protocol.eval_all_json_us",
                 tr->MedianUs("server.protocol.eval_all_json"), "us");
  report->Metric("core.incremental.evaluate_us",
                 tr->MedianUs("core.incremental.evaluate"), "us");
  report->Metric("core.incremental.evaluate_all_ms",
                 tr->MedianUs("core.incremental.evaluate_all") / 1e3, "ms");
  report->Metric("core.incremental.dirtied_per_resp", Median(dirtied),
                 "workers");
  report->Metric("core.incremental.stale_per_eval_all", Median(stale),
                 "workers");
  report->Metric("core.incremental.eval_hit_share",
                 evals == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(evals),
                 "share");
  const double layers_s = tr->SelfS("core.incremental.add_response") +
                          tr->SelfS("core.incremental.evaluate") +
                          tr->SelfS("server.protocol.assessment_json") +
                          tr->SelfS("core.incremental.evaluate_all") +
                          tr->SelfS("server.protocol.eval_all_json");
  return Shares(untraced_s, traced_s, layers_s);
}

// ---------------------------------------------------------- batch_binary

WorkloadShares TraceBatchBinary(const Options& options, Tracer* tr,
                                Report* report, Tally* tally) {
  Span workload(tr, "workload.batch_binary");
  BinaryCrowd crowd = MakeBinaryCrowd(kBatchBinaryWorkers, kBatchBinaryTasks,
                                      kBatchBinaryDensity, options.seed);
  const crowd::core::CrowdEvaluator evaluator;
  crowd::core::CrowdEvaluator::BinaryReport last;
  auto evaluate = [&] {
    auto result = evaluator.EvaluateBinary(crowd.matrix);
    if (!result.ok()) Die("EvaluateBinary failed");
    last = std::move(*result);
    return crowd::server::BinaryReportJson(last);
  };
  // A (untraced), B (traced) and C (stage by stage) alternate per
  // repetition.
  const crowd::core::BinaryOptions opts;
  double untraced_s = 0.0, traced_s = 0.0;
  size_t triples_ok = 0, triples_dropped = 0, fallbacks = 0, combined = 0;
  for (int rep = 0; rep < kBatchTraceReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::string first = evaluate();
    untraced_s += SecondsSince(t0);
    t0 = Clock::now();
    std::string again;
    {
      Span span(tr, "batch.evaluate");
      again = evaluate();
    }
    traced_s += SecondsSince(t0);
    tally->Attempt();
    if (again != first) tally->Fail("batch_binary replay not repeatable");

    // C: Algorithm A2 stage by stage, as EvaluateWorker runs it.
    std::unique_ptr<crowd::data::OverlapIndex> overlap;
    {
      Span span(tr, "data.overlap.build");
      overlap = std::make_unique<crowd::data::OverlapIndex>(crowd.matrix);
    }
    for (size_t w = 0; w < crowd.matrix.num_workers(); ++w) {
      std::vector<crowd::core::WorkerPair> pairs;
      {
        Span span(tr, "core.pairing.worker");
        pairs = crowd::core::GreedyPairs(*overlap, w);
      }
      std::vector<crowd::core::TripleEstimate> triples;
      {
        Span span(tr, "core.triples.worker");
        for (const auto& [j1, j2] : pairs) {
          auto t = crowd::core::EvaluateTriple(*overlap, w, j1, j2, opts);
          if (t.ok()) {
            triples.push_back(std::move(*t));
          } else {
            ++triples_dropped;
          }
        }
      }
      triples_ok += triples.size();
      if (triples.empty()) continue;
      crowd::Result<crowd::linalg::Matrix> cov =
          crowd::Status::Internal("unset");
      {
        Span span(tr, "core.covariance.worker");
        cov = crowd::core::CrossTripleCovariance(triples, *overlap, opts);
      }
      if (!cov.ok()) continue;
      {
        Span span(tr, "core.weights.worker");
        auto solution =
            crowd::core::MinimumVarianceWeights(*cov, opts.covariance_ridge);
        if (solution.used_fallback) ++fallbacks;
      }
      ++combined;
    }
    Span span(tr, "server.protocol.batch_json");
    (void)crowd::server::BinaryReportJson(last);
  }
  const double m =
      static_cast<double>(crowd.matrix.num_workers() * kBatchTraceReps);
  report->Metric("data.overlap.build_ms",
                 tr->MedianUs("data.overlap.build") / 1e3, "ms");
  report->Metric("core.pairing.us_per_worker",
                 tr->TotalS("core.pairing.worker") * 1e6 / m, "us");
  report->Metric("core.triples.us_per_worker",
                 tr->TotalS("core.triples.worker") * 1e6 / m, "us");
  report->Metric("core.triples.per_worker",
                 static_cast<double>(triples_ok) / m, "triples");
  report->Metric("core.triples.dropped_share",
                 static_cast<double>(triples_dropped) /
                     static_cast<double>(triples_ok + triples_dropped),
                 "share");
  report->Metric("core.covariance.us_per_worker",
                 tr->TotalS("core.covariance.worker") * 1e6 / m, "us");
  report->Metric("core.weights.us_per_worker",
                 tr->TotalS("core.weights.worker") * 1e6 / m, "us");
  report->Metric("core.weights.fallback_share",
                 combined == 0 ? 0.0
                               : static_cast<double>(fallbacks) /
                                     static_cast<double>(combined),
                 "share");
  report->Metric("server.protocol.batch_json_ms",
                 tr->MedianUs("server.protocol.batch_json") / 1e3, "ms");
  report->Check("triples_match_pool",
                TriplesMatchPool(last.assessments, kBatchBinaryWorkers));
  // Largest self time among the A2 stages.
  std::string top;
  double top_s = -1.0;
  for (const char* stage :
       {"data.overlap.build", "core.pairing.worker", "core.triples.worker",
        "core.covariance.worker", "core.weights.worker",
        "server.protocol.batch_json"}) {
    if (tr->SelfS(stage) > top_s) {
      top_s = tr->SelfS(stage);
      top = stage;
    }
  }
  report->InfoText("trace.batch_binary.top_self_time", top);
  const double layers_s =
      tr->SelfS("data.overlap.build") + tr->SelfS("core.pairing.worker") +
      tr->SelfS("core.triples.worker") + tr->SelfS("core.covariance.worker") +
      tr->SelfS("core.weights.worker") +
      tr->SelfS("server.protocol.batch_json");
  return Shares(untraced_s, traced_s, layers_s);
}

// ------------------------------------------------------------ batch_kary

WorkloadShares TraceBatchKary(const Options& options, Tracer* tr,
                              Report* report, Tally* tally) {
  Span workload(tr, "workload.batch_kary");
  KaryCrowd crowd = MakeKaryCrowd(kBatchKaryWorkers, kBatchKaryTasks,
                                  kBatchKaryDensity, options.seed);
  auto evaluate = [&] {
    return KaryResultBodyJson(
        crowd::core::KaryEvaluateAllWorkers(crowd.matrix, {}));
  };
  const crowd::core::KaryMWorkerOptions opts;
  double untraced_s = 0.0, traced_s = 0.0;
  for (int rep = 0; rep < kBatchTraceReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::string first = evaluate();
    untraced_s += SecondsSince(t0);
    t0 = Clock::now();
    std::string again;
    {
      Span span(tr, "batch.evaluate_kary");
      again = evaluate();
    }
    traced_s += SecondsSince(t0);
    tally->Attempt();
    if (again != first) tally->Fail("batch_kary replay not repeatable");

    std::unique_ptr<crowd::data::OverlapIndex> overlap;
    {
      Span span(tr, "kary.overlap.build");
      overlap = std::make_unique<crowd::data::OverlapIndex>(crowd.matrix);
    }
    for (size_t w = 0; w < crowd.matrix.num_workers(); ++w) {
      Span span(tr, "core.kary.worker");
      (void)crowd::core::KaryEvaluateWorker(crowd.matrix, *overlap, w, opts);
    }
    // The triple layers, over the same peer pairs a worker evaluation
    // uses (every overlap here is far above the 20-task threshold).
    for (size_t w = 0; w < crowd.matrix.num_workers(); ++w) {
      for (const auto& [j1, j2] : crowd::core::GreedyPairs(*overlap, w)) {
        crowd::Result<crowd::core::CountsTensor> counts =
            crowd::Status::Internal("unset");
        {
          Span span(tr, "core.kary.counts");
          counts =
              crowd::core::CountsTensor::FromResponses(crowd.matrix, w, j1, j2);
        }
        if (!counts.ok()) continue;
        {
          Span span(tr, "core.kary.prob_estimate");
          (void)crowd::core::ProbEstimate(*counts, opts.kary.prob_estimate);
        }
        {
          Span span(tr, "core.kary.triple_ci");
          (void)crowd::core::KaryEvaluateCounts(*counts, opts.kary);
        }
      }
    }
  }
  report->Metric("core.kary.worker_ms", tr->MedianUs("core.kary.worker") / 1e3,
                 "ms");
  report->Metric("core.kary.counts_us", tr->MedianUs("core.kary.counts"), "us");
  report->Metric("core.kary.prob_estimate_us",
                 tr->MedianUs("core.kary.prob_estimate"), "us");
  report->Metric("core.kary.triple_ci_ms",
                 tr->MedianUs("core.kary.triple_ci") / 1e3, "ms");
  // KaryEvaluateCounts runs ProbEstimate itself, so the leaf layers of
  // one evaluation are the overlap build, the counts and the triple CIs.
  const double layers_s = tr->SelfS("kary.overlap.build") +
                          tr->SelfS("core.kary.counts") +
                          tr->SelfS("core.kary.triple_ci");
  return Shares(untraced_s, traced_s, layers_s);
}

}  // namespace

void RunTraced(const Options& options, Report* report, Tally* tally) {
  const std::string run_dir = MakeRunDir("trace");
  // Size the span rings, then leave the program's own spans switched
  // off: only this file records.
  crowd::obs::StartTracing(1 << 17);
  crowd::obs::StopTracing();
  report->Info("host.calib_ms.start", CalibrationMs());
  // One tracer per workload, so a layer's statistics come from the
  // workload it is replayed on.
  Tracer tracers[4];
  const std::pair<const char*, WorkloadShares> shares[] = {
      {"ingest", TraceIngest(options, run_dir, &tracers[0], report, tally)},
      {"mixed", TraceMixed(options, run_dir, &tracers[1], report, tally)},
      {"batch_binary", TraceBatchBinary(options, &tracers[2], report, tally)},
      {"batch_kary", TraceBatchKary(options, &tracers[3], report, tally)},
  };
  for (const auto& [name, share] : shares) {
    report->Metric(std::string("trace.") + name + ".overhead_share",
                   share.overhead, "share");
    report->Metric(std::string("trace.") + name + ".unaccounted_share",
                   share.unaccounted, "share");
  }
  report->Info("host.calib_ms.end", CalibrationMs());
  std::filesystem::create_directories(".bench_build/traces");
  const std::string path = ".bench_build/traces/" + options.workload + "-" +
                           std::to_string(options.seed) + ".json";
  if (!crowd::obs::WriteChromeTrace(path)) Die("cannot write " + path);
  report->InfoText("trace.file", path);
  RemoveTree(run_dir);
}

}  // namespace perfbench
