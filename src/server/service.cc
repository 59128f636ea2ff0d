#include "server/service.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/trace.h"
#include "server/snapshot.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/scheduler_slice.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace crowd::server {

namespace {

constexpr const char* kJournalFile = "journal.crwj";

std::string JournalPath(const std::string& dir) {
  return dir + "/" + kJournalFile;
}

}  // namespace

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  counters_.ingested = metrics_.GetCounter(
      "crowdeval_server_responses_ingested_total",
      "accepted RESP commands (including overwrites)");
  counters_.noop =
      metrics_.GetCounter("crowdeval_server_responses_noop_total",
                          "identical RESP re-submissions");
  counters_.rejected =
      metrics_.GetCounter("crowdeval_server_responses_rejected_total",
                          "RESP commands rejected as out of range");
  counters_.cache_hits =
      metrics_.GetCounter("crowdeval_server_eval_cache_hits_total",
                          "worker assessments served from cache");
  counters_.cache_misses =
      metrics_.GetCounter("crowdeval_server_eval_cache_misses_total",
                          "worker assessments recomputed");
  counters_.eval_all_runs = metrics_.GetCounter(
      "crowdeval_server_eval_all_runs_total", "EVAL_ALL commands run");
  counters_.snapshots_written =
      metrics_.GetCounter("crowdeval_server_snapshots_written_total",
                          "snapshots written by this service");
  counters_.recovered_records = metrics_.GetCounter(
      "crowdeval_server_recovered_records_total",
      "journal records replayed during recovery");
  counters_.recovery_truncated_bytes = metrics_.GetCounter(
      "crowdeval_server_recovery_truncated_bytes_total",
      "torn-tail bytes dropped during recovery");
  counters_.journal_bytes =
      metrics_.GetGauge("crowdeval_server_journal_file_bytes",
                        "current journal file size");
  counters_.journal_records =
      metrics_.GetGauge("crowdeval_server_journal_file_records",
                        "records in the current journal file");
  counters_.snapshot_seq =
      metrics_.GetGauge("crowdeval_server_snapshot_seq",
                        "sequence covered by the latest snapshot");
  for (size_t i = 0; i < kNumCommandTypes; ++i) {
    counters_.command_seconds[i] = metrics_.GetHistogram(
        "crowdeval_server_command_seconds",
        "wall time of one protocol command", obs::Histogram::LatencyBounds(),
        "command", CommandName(static_cast<CommandType>(i)));
  }
}

Result<std::unique_ptr<Service>> Service::Open(ServiceOptions options) {
  std::unique_ptr<Service> service(new Service(std::move(options)));
  {
    // No other thread can reach the service yet; the lock exists so
    // Recover's writes to the guarded state satisfy the analysis.
    util::MutexLock lock(service->mu_);
    CROWD_RETURN_NOT_OK(service->Recover());
  }
  return service;
}

Status Service::Recover() {
  namespace fs = std::filesystem;
  const std::string& dir = options_.data_dir;

  std::optional<SnapshotData> snapshot;
  std::vector<JournalRecord> tail;
  std::optional<JournalHeader> journal_header;
  if (!dir.empty()) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      return Status::IoError("create_directories(" + dir +
                             "): " + ec.message());
    }
    // Sweep *.tmp files left by a crash mid-snapshot or mid-compaction;
    // they were never renamed into place, so they are not part of the
    // durable state.
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".tmp") {
        std::error_code remove_ec;
        fs::remove(entry.path(), remove_ec);
      }
    }
    CROWD_ASSIGN_OR_RETURN(std::vector<uint64_t> seqs,
                           ListSnapshotSeqs(dir));
    for (uint64_t seq : seqs) {
      auto loaded = LoadSnapshot(SnapshotPath(dir, seq));
      if (loaded.ok()) {
        snapshot = std::move(*loaded);
        break;
      }
      CROWD_LOG_WARNING << "ignoring unreadable snapshot: "
                        << loaded.status();
    }
    if (fs::exists(JournalPath(dir))) {
      CROWD_ASSIGN_OR_RETURN(JournalRecovered recovered,
                             Journal::Open(JournalPath(dir)));
      journal_header = recovered.header;
      tail = std::move(recovered.records);
      counters_.recovery_truncated_bytes->Increment(
          recovered.truncated_bytes);
      if (recovered.truncated_bytes > 0) {
        CROWD_LOG_WARNING << "journal: dropped torn tail of "
                          << recovered.truncated_bytes << " bytes";
      }
      journal_.emplace(std::move(recovered.journal));
    }
  }

  // Resolve the worker/task universe: on-disk metadata wins; explicit
  // options must agree with it.
  size_t num_workers = options_.num_workers;
  size_t num_tasks = options_.num_tasks;
  uint32_t disk_workers = 0, disk_tasks = 0, disk_arity = 0;
  if (journal_header.has_value()) {
    disk_workers = journal_header->num_workers;
    disk_tasks = journal_header->num_tasks;
    disk_arity = journal_header->arity;
  }
  if (snapshot.has_value()) {
    const data::ResponseMatrix& matrix = snapshot->matrix;
    if (journal_header.has_value() &&
        (matrix.num_workers() != disk_workers ||
         matrix.num_tasks() != disk_tasks ||
         matrix.arity() != static_cast<int>(disk_arity))) {
      return Status::IoError(
          "snapshot and journal disagree on the worker/task universe");
    }
    disk_workers = static_cast<uint32_t>(matrix.num_workers());
    disk_tasks = static_cast<uint32_t>(matrix.num_tasks());
    disk_arity = static_cast<uint32_t>(matrix.arity());
  }
  if (disk_workers != 0 || disk_tasks != 0) {
    if ((num_workers != 0 && num_workers != disk_workers) ||
        (num_tasks != 0 && num_tasks != disk_tasks)) {
      return Status::Invalid(StrFormat(
          "configured universe %zux%zu conflicts with recovered "
          "state %ux%u",
          num_workers, num_tasks, disk_workers, disk_tasks));
    }
    if (disk_arity != 2) {
      return Status::Invalid(
          StrFormat("recovered state has arity %u; the streaming "
                    "service evaluates binary tasks only",
                    disk_arity));
    }
    num_workers = disk_workers;
    num_tasks = disk_tasks;
  }
  if (num_workers == 0 || num_tasks == 0) {
    return Status::Invalid(
        "num_workers and num_tasks are required for a fresh service");
  }

  // 1. Snapshot image (an empty matrix without one).
  data::ResponseMatrix image =
      snapshot.has_value() ? std::move(snapshot->matrix)
                           : data::ResponseMatrix(num_workers, num_tasks, 2);
  if (snapshot.has_value()) {
    last_seq_ = snapshot->applied_seq;
    counters_.snapshot_seq->Set(
        static_cast<int64_t>(snapshot->applied_seq));
  }

  // 2. Journal tail, folded into the image cell by cell. Records at or
  // below the snapshot's seq are already part of the image (a crash
  // between snapshot write and journal compaction leaves such records
  // behind — harmless). ResponseMatrix::Set checks every index and
  // value, so a CRC-valid record naming a cell outside the universe
  // fails recovery with a Status.
  if (journal_.has_value()) {
    if (journal_->header().base_seq > last_seq_) {
      return Status::IoError(StrFormat(
          "journal starts at seq %llu but recovered snapshot covers "
          "only seq %llu — snapshot missing or deleted",
          static_cast<unsigned long long>(journal_->header().base_seq),
          static_cast<unsigned long long>(last_seq_)));
    }
    for (const JournalRecord& record : tail) {
      if (record.seq <= last_seq_) continue;
      CROWD_RETURN_NOT_OK(
          image.Set(record.worker, record.task, record.value)
              .WithContext(StrFormat(
                  "replaying journal seq %llu",
                  static_cast<unsigned long long>(record.seq))));
      last_seq_ = record.seq;
      counters_.recovered_records->Increment();
    }
    counters_.journal_bytes->Set(
        static_cast<int64_t>(journal_->file_bytes()));
    counters_.journal_records->Set(
        static_cast<int64_t>(journal_->record_count()));
  } else if (!dir.empty()) {
    // Fresh directory (or snapshot without a journal): start a new
    // journal continuing at the recovered seq.
    JournalHeader header;
    header.num_workers = static_cast<uint32_t>(num_workers);
    header.num_tasks = static_cast<uint32_t>(num_tasks);
    header.arity = 2;
    header.base_seq = last_seq_;
    CROWD_ASSIGN_OR_RETURN(Journal journal,
                           Journal::Create(JournalPath(dir), header));
    journal_.emplace(std::move(journal));
    counters_.journal_bytes->Set(
        static_cast<int64_t>(journal_->file_bytes()));
  }

  // 3. One bulk index build over the final image.
  evaluator_ = std::make_unique<core::IncrementalEvaluator>(
      std::move(image), options_.binary);
  return Status::OK();
}

Status Service::Ingest(data::WorkerId worker, data::TaskId task,
                       data::Response value, uint64_t* seq) {
  const Command cmd{CommandType::kResp, worker, task, value};
  RespOutcome outcome;
  IngestRun(std::span<const Command>(&cmd, 1), &outcome);
  if (outcome.status.ok() && seq != nullptr) *seq = outcome.seq;
  return outcome.status;
}

void Service::IngestRun(std::span<const Command> run,
                        RespOutcome* outcomes) {
  util::MutexLock lock(mu_);
  // Outcomes [first_pending, i] wait on pending_: their acks name seqs
  // that are not journaled yet.
  size_t first_pending = 0;
  for (size_t i = 0; i < run.size(); ++i) {
    const Command& cmd = run[i];
    RespOutcome& outcome = outcomes[i];
    if (!journal_failure_.ok()) {
      outcome.status = JournalFailedError();
      continue;
    }
    bool changed = false;
    Status st =
        evaluator_->AddResponse(cmd.worker, cmd.task, cmd.value, &changed);
    if (!st.ok()) {
      counters_.rejected->Increment();
      outcome.status = std::move(st);
      continue;
    }
    outcome.seq = last_seq_ + pending_.size();
    if (!changed) {
      counters_.noop->Increment();
      continue;
    }
    pending_.push_back({++outcome.seq, cmd.worker, cmd.task, cmd.value});
    // An automatic snapshot falls exactly where one-at-a-time ingest
    // puts it, so the journal and snapshot bytes do not depend on how
    // the lines were batched.
    if (options_.snapshot_every > 0 && journal_.has_value() &&
        outcome.seq -
                static_cast<uint64_t>(counters_.snapshot_seq->Value()) >=
            options_.snapshot_every) {
      CommitPending(std::span<RespOutcome>(outcomes + first_pending,
                                           i + 1 - first_pending));
      first_pending = i + 1;
      if (!journal_failure_.ok()) continue;
      auto snap = TakeSnapshotLocked();
      if (!snap.ok()) {
        // The responses themselves are durable in the journal; a
        // failed background compaction must not fail the ingest.
        CROWD_LOG_WARNING << "automatic snapshot failed: " << snap.status();
      }
    }
  }
  CommitPending(std::span<RespOutcome>(outcomes + first_pending,
                                       run.size() - first_pending));
}

void Service::CommitPending(std::span<RespOutcome> run) {
  if (pending_.empty()) return;
  if (journal_.has_value()) {
    Status st = journal_->Append(pending_);
    if (st.ok() && options_.fsync_each_append) st = journal_->Sync();
    if (!st.ok()) {
      CROWD_LOG_ERROR
          << "journal failed; refusing writes and reads until restart: "
          << st;
      journal_failure_ = st;
      for (RespOutcome& outcome : run) outcome.status = st;
      pending_.clear();
      return;
    }
    counters_.journal_bytes->Set(
        static_cast<int64_t>(journal_->file_bytes()));
    counters_.journal_records->Set(
        static_cast<int64_t>(journal_->record_count()));
  }
  last_seq_ = pending_.back().seq;
  counters_.ingested->Increment(pending_.size());
  pending_.clear();
}

Status Service::JournalFailedError() const {
  return Status::IoError(
      "journal failed (" + journal_failure_.message() +
      "); RESP, EVAL, EVAL_ALL, SPAMMERS and SNAPSHOT are refused until "
      "the service restarts");
}

Result<core::WorkerAssessment> Service::Evaluate(data::WorkerId worker) {
  core::IncrementalEvaluator* evaluator = nullptr;
  core::IncrementalEvaluator::Pass pass;
  {
    util::MutexLock lock(mu_);
    if (!journal_failure_.ok()) return JournalFailedError();
    evaluator = evaluator_.get();
    // A rejected id touches no cache, so it counts as neither a hit
    // nor a miss.
    CROWD_ASSIGN_OR_RETURN(
        pass, evaluator->Capture(
                  worker, core::IncrementalEvaluator::IndexView::kCopy));
    (pass.stale.empty() ? counters_.cache_hits : counters_.cache_misses)
        ->Increment();
  }
  Result<core::WorkerAssessment> result = [&] {
    util::ShortSchedulerSlice yield_to_writers;
    return evaluator->Run(&pass);
  }();
  util::MutexLock lock(mu_);
  evaluator->Commit(std::move(pass));
  return result;
}

core::MWorkerResult Service::EvaluateAll() {
  Result<core::MWorkerResult> result = EvaluateAllOrRefuse();
  if (result.ok()) return std::move(*result);
  core::MWorkerResult refused;
  const size_t workers = num_workers();
  for (data::WorkerId w = 0; w < workers; ++w) {
    refused.failures.emplace_back(w, result.status());
  }
  return refused;
}

Result<core::MWorkerResult> Service::EvaluateAllOrRefuse() {
  core::IncrementalEvaluator* evaluator = nullptr;
  core::IncrementalEvaluator::Pass pass;
  {
    util::MutexLock lock(mu_);
    if (!journal_failure_.ok()) return JournalFailedError();
    evaluator = evaluator_.get();
    pass = evaluator->CaptureAll(core::IncrementalEvaluator::IndexView::kCopy);
    counters_.cache_misses->Increment(pass.stale.size());
    counters_.cache_hits->Increment(pass.results.size() - pass.stale.size());
    counters_.eval_all_runs->Increment();
  }
  core::MWorkerResult result = [&] {
    util::ShortSchedulerSlice yield_to_writers;
    return evaluator->RunAll(&pass);
  }();
  util::MutexLock lock(mu_);
  evaluator->Commit(std::move(pass));
  return result;
}

Result<uint64_t> Service::TakeSnapshot() {
  util::MutexLock lock(mu_);
  return TakeSnapshotLocked();
}

Result<uint64_t> Service::TakeSnapshotLocked() {
  if (options_.data_dir.empty()) {
    return Status::Invalid("snapshots require a data directory");
  }
  // The matrix may hold cells of the run whose journal write failed;
  // a snapshot would make them durable although they were never acked.
  if (!journal_failure_.ok()) return JournalFailedError();
  CROWD_RETURN_NOT_OK(
      WriteSnapshot(options_.data_dir, evaluator_->responses(), last_seq_)
          .status());
  // Compact: swap in an empty journal whose base is the snapshot seq.
  // The snapshot is durable, so records at or below last_seq_ are
  // redundant; a crash between the rename and the cleanup below only
  // leaves extra (skipped-on-replay) files behind.
  JournalHeader header;
  header.num_workers = static_cast<uint32_t>(NumWorkersLocked());
  header.num_tasks = static_cast<uint32_t>(NumTasksLocked());
  header.arity = 2;
  header.base_seq = last_seq_;
  const std::string path = JournalPath(options_.data_dir);
  const std::string tmp = path + ".tmp";
  CROWD_ASSIGN_OR_RETURN(Journal compacted, Journal::Create(tmp, header));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path);
  }
  CROWD_RETURN_NOT_OK(SyncDirectoryOf(path));
  journal_.emplace(std::move(compacted));
  CROWD_RETURN_NOT_OK(
      RemoveSnapshotsBefore(options_.data_dir, last_seq_));
  counters_.snapshot_seq->Set(static_cast<int64_t>(last_seq_));
  counters_.snapshots_written->Increment();
  counters_.journal_bytes->Set(
      static_cast<int64_t>(journal_->file_bytes()));
  counters_.journal_records->Set(0);
  if (!options_.trace_out.empty() && obs::TracingEnabled()) {
    if (!obs::WriteChromeTrace(options_.trace_out)) {
      CROWD_LOG_WARNING << "failed to write trace to "
                        << options_.trace_out;
    }
  }
  return last_seq_;
}

std::string Service::MetricsExposition() const {
  std::string out = metrics_.ExportPrometheus();
  if (obs::Registry* global = obs::MetricsRegistry()) {
    // The process-wide registry carries the library instrumentation
    // (core estimator, thread pool, journal/snapshot I/O). Family
    // names are disjoint by the crowdeval_server_ naming discipline,
    // so concatenation stays a valid exposition.
    out += global->ExportPrometheus();
  }
  out += "# EOF";
  return out;
}

uint64_t Service::last_seq() const {
  util::MutexLock lock(mu_);
  return last_seq_;
}

size_t Service::NumWorkersLocked() const {
  return evaluator_->responses().num_workers();
}

size_t Service::NumTasksLocked() const {
  return evaluator_->responses().num_tasks();
}

size_t Service::num_workers() const {
  util::MutexLock lock(mu_);
  return NumWorkersLocked();
}

size_t Service::num_tasks() const {
  util::MutexLock lock(mu_);
  return NumTasksLocked();
}

void Service::ExecuteBurst(std::span<const std::string_view> lines,
                           std::string* out, bool* quit) {
  if (quit != nullptr) *quit = false;
  // RESP lines gather into a run until a line of another kind (or the
  // end of the burst) closes it. The buffer is the thread's own and
  // keeps its capacity, so a run allocates nothing once the thread has
  // seen one as long.
  thread_local std::vector<Command> run;
  run.clear();
  for (std::string_view line : lines) {
    Result<Command> cmd = ParseCommand(line);
    if (cmd.ok() && cmd->type == CommandType::kResp) {
      run.push_back(*cmd);
      continue;
    }
    ServeRespRun(run, out);
    run.clear();
    if (!cmd.ok()) {
      *out += ErrorJson(cmd.status());
      *out += '\n';
      continue;
    }
    bool stop = false;
    Stopwatch timer;
    *out += HandleCommand(*cmd, &stop);
    counters_.command_seconds[static_cast<size_t>(cmd->type)]->Record(
        timer.ElapsedSeconds());
    *out += '\n';
    if (stop) {
      if (quit != nullptr) *quit = true;
      return;
    }
  }
  ServeRespRun(run, out);
}

void Service::ServeRespRun(std::span<const Command> run, std::string* out) {
  if (run.empty()) return;
  Stopwatch timer;
  thread_local std::vector<RespOutcome> outcomes;  // reused like `run`
  outcomes.clear();
  outcomes.resize(run.size());
  IngestRun(run, outcomes.data());
  for (const RespOutcome& outcome : outcomes) {
    if (outcome.status.ok()) {
      json::Append(out, "{\"ok\":true,\"seq\":", outcome.seq, "}\n");
    } else {
      *out += ErrorJson(outcome.status);
      *out += '\n';
    }
  }
  // Each RESP records its share of the run, so the histogram still
  // counts one sample per RESP.
  const double share =
      timer.ElapsedSeconds() / static_cast<double>(run.size());
  obs::HistogramMetric* seconds =
      counters_.command_seconds[static_cast<size_t>(CommandType::kResp)];
  for (size_t i = 0; i < run.size(); ++i) seconds->Record(share);
}

std::string Service::ExecuteLine(std::string_view line, bool* quit) {
  std::string out;
  ExecuteBurst(std::span<const std::string_view>(&line, 1), &out, quit);
  out.pop_back();  // the newline ExecuteBurst ends each reply with
  return out;
}

std::string Service::HandleCommand(const Command& cmd, bool* quit) {
  std::string out;
  switch (cmd.type) {
    case CommandType::kResp:
      break;  // ExecuteBurst serves RESP in runs
    case CommandType::kEval: {
      Result<core::WorkerAssessment> result = Evaluate(cmd.worker);
      if (!result.ok()) return ErrorJson(result.status());
      out = "{\"ok\":true,\"assessment\":";
      AppendAssessmentJson(&out, *result);
      out += '}';
      return out;
    }
    case CommandType::kEvalAll: {
      Result<core::MWorkerResult> result = EvaluateAllOrRefuse();
      if (!result.ok()) return ErrorJson(result.status());
      out = "{\"ok\":true,";
      AppendMWorkerResultBodyJson(&out, *result);
      out += '}';
      return out;
    }
    case CommandType::kSpammers: {
      util::MutexLock lock(mu_);
      if (!journal_failure_.ok()) return ErrorJson(JournalFailedError());
      auto filtered = core::FilterSpammers(evaluator_->responses(),
                                           options_.spammer);
      if (!filtered.ok()) return ErrorJson(filtered.status());
      json::Append(&out, "{\"ok\":true,\"threshold\":",
                   options_.spammer.threshold, ",\"spammers\":");
      json::AppendArray(&out, filtered->removed.size(), [&](size_t i) {
        const data::WorkerId w = filtered->removed[i];
        json::Append(&out, "{\"worker\":", w, ",\"proxy_error\":",
                     filtered->proxy_error[w], "}");
      });
      out += '}';
      return out;
    }
    case CommandType::kStats: {
      const auto& seconds = counters_.command_seconds;
      const double eval_micros_total =
          (seconds[static_cast<size_t>(CommandType::kEval)]->Snapshot().sum() +
           seconds[static_cast<size_t>(CommandType::kEvalAll)]
               ->Snapshot()
               .sum()) *
          1e6;
      util::MutexLock lock(mu_);
      json::Append(
          &out, "{\"ok\":true,\"stats\":{\"num_workers\":",
          NumWorkersLocked(), ",\"num_tasks\":", NumTasksLocked(),
          ",\"total_responses\":", evaluator_->TotalResponses(),
          ",\"last_seq\":", last_seq_,
          ",\"dirty_workers\":", evaluator_->DirtyWorkerCount(),
          ",\"responses_ingested\":", counters_.ingested->Value(),
          ",\"responses_noop\":", counters_.noop->Value(),
          ",\"responses_rejected\":", counters_.rejected->Value(),
          ",\"eval_cache_hits\":", counters_.cache_hits->Value(),
          ",\"eval_cache_misses\":", counters_.cache_misses->Value(),
          ",\"eval_all_runs\":", counters_.eval_all_runs->Value(),
          ",\"eval_micros_total\":", eval_micros_total,
          ",\"journal_bytes\":", counters_.journal_bytes->Value(),
          ",\"journal_records\":", counters_.journal_records->Value(),
          ",\"snapshots_written\":", counters_.snapshots_written->Value(),
          ",\"snapshot_seq\":", counters_.snapshot_seq->Value(),
          ",\"recovered_records\":", counters_.recovered_records->Value(),
          ",\"recovery_truncated_bytes\":",
          counters_.recovery_truncated_bytes->Value(), "}}");
      return out;
    }
    case CommandType::kMetrics:
      return MetricsExposition();
    case CommandType::kSnapshot: {
      Result<uint64_t> seq = TakeSnapshot();
      if (!seq.ok()) return ErrorJson(seq.status());
      json::Append(&out, "{\"ok\":true,\"snapshot_seq\":", *seq,
                   ",\"journal_bytes\":", counters_.journal_bytes->Value(),
                   "}");
      return out;
    }
    case CommandType::kQuit:
      if (quit != nullptr) *quit = true;
      return "{\"ok\":true,\"bye\":true}";
  }
  return ErrorJson(Status::Internal("unhandled command"));
}

}  // namespace crowd::server
