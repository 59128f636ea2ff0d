// The crowdevald serving layer: a thread-safe wrapper around
// IncrementalEvaluator that executes protocol commands, journals every
// accepted response before acknowledging it, snapshots + compacts on
// demand (or every `snapshot_every` responses), and recovers its state
// on startup from the latest valid snapshot plus the journal tail.
//
// Concurrency model: one mutex, mu_, guards the evaluator, the journal
// and the seq. A run of consecutive RESP lines (ExecuteBurst) takes it
// once and holds it throughout; each RESP is O(m) (a matrix store, an
// overlap update and dirty-epoch marking). EVAL and EVAL_ALL hold it
// twice, briefly, around an IncrementalEvaluator::Pass:
//   1. capture, under mu_: each requested worker's dirty epoch, its
//      cached assessment when fresh, and (when some requested worker
//      is stale) a private copy of the overlap index;
//   2. run, without mu_: the stale workers are evaluated against that
//      copy, on up to `binary.num_threads` threads (EvaluatePool), while
//      writers keep mutating the live index. The run holds a
//      util::ShortSchedulerSlice, so a writer woken on an evaluating
//      CPU preempts the pass within 100 µs instead of waiting out the
//      kernel's default ~2 ms slice;
//   3. commit, under mu_: each result is cached only if no RESP dirtied
//      its worker since the capture.
// The capture is the linearization point: a reply reflects exactly the
// responses applied before it, so every RESP acknowledged before the
// EVAL was sent is included. No copy outlives its request. Writers
// from many connections batch naturally between evaluations, and
// EVAL_ALL refreshes all accumulated-stale workers in one pass: the
// memoization contract of IncrementalEvaluator, lifted behind a socket.
// SPAMMERS, STATS and SNAPSHOT run under mu_ throughout.
//
// Durability: an acknowledged RESP has been write(2)ed to the journal
// and survives SIGKILL of the daemon (OS page cache); set
// `fsync_each_append` to also survive power loss at a heavy latency
// cost. A RESP run is journaled with one write(2) (and one fsync)
// before any of its acks is written. A failed journal write or sync is
// final: every RESP of that run gets the I/O error, the journal is cut
// back to its last whole record, and RESP, EVAL, EVAL_ALL, SPAMMERS and
// SNAPSHOT are refused until the service is reopened: the failed run's
// cells stay applied in memory, where no read may see them, and
// recovery drops them. STATS still answers; its total_responses
// counts those cells.
// Recovery sequence (Service::Open with a data_dir):
//   1. newest snapshot whose checksum validates -> response matrix
//      (an empty matrix when there is no snapshot),
//   2. journal records with seq > snapshot.applied_seq written into
//      that matrix in order with ResponseMatrix::Set (a torn tail is
//      truncated, never applied; an out-of-range record fails Open),
//   3. a fresh journal created when the directory is new,
//   4. one bulk index build: IncrementalEvaluator's matrix
//      constructor over the final matrix. No response is replayed
//      through AddResponse.

#ifndef CROWD_SERVER_SERVICE_H_
#define CROWD_SERVER_SERVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/incremental.h"
#include "core/spammer_filter.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "server/journal.h"
#include "server/protocol.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace crowd::server {

/// \brief Service configuration.
struct ServiceOptions {
  /// Worker/task universe for a fresh service. When recovering from a
  /// non-empty data_dir the on-disk dimensions win; non-zero values
  /// here must then match them.
  size_t num_workers = 0;
  size_t num_tasks = 0;
  /// Estimator options (confidence, weights, num_threads, ...).
  core::BinaryOptions binary;
  /// SPAMMERS command options.
  core::SpammerFilterOptions spammer;
  /// Durability directory; empty runs fully in memory (no journal, no
  /// snapshots — SNAPSHOT becomes an error).
  std::string data_dir;
  /// Automatically snapshot + compact after this many accepted
  /// responses since the last snapshot (0 = only on SNAPSHOT).
  uint64_t snapshot_every = 0;
  /// fsync the journal after every append, one append per RESP run
  /// (power-loss durability).
  bool fsync_each_append = false;
  /// When non-empty, SNAPSHOT also dumps the chrome-trace JSON of all
  /// spans captured so far to this path (the daemon additionally dumps
  /// on shutdown). Requires tracing to have been started.
  std::string trace_out;
};

/// \brief The in-process assessment service (the daemon minus sockets).
class Service {
 public:
  /// Opens the service: recovers from `options.data_dir` when it holds
  /// state, otherwise starts fresh (creating the durability files when
  /// a data_dir is configured).
  static Result<std::unique_ptr<Service>> Open(ServiceOptions options);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// \brief Executes the complete request lines of one read, in
  /// order, appending each reply and a '\n' to `*out`. The replies are
  /// those of ExecuteLine on each line in turn, byte for byte. Each
  /// maximal run of consecutive RESP lines is applied under one
  /// acquisition of mu_ and journaled with one write(2) (and one fsync
  /// with `fsync_each_append`) before any of its acks is written; every
  /// other verb runs on its own. A QUIT line sets `*quit` and ends the
  /// burst: no later line runs.
  void ExecuteBurst(std::span<const std::string_view> lines,
                    std::string* out, bool* quit = nullptr)
      CROWD_EXCLUDES(mu_);

  /// \brief Executes one protocol line and returns one JSON line
  /// (without trailing newline): a burst of one. Never fails: errors
  /// become `{"ok":false,...}` replies. Sets `*quit` when the command
  /// asks to close the connection.
  std::string ExecuteLine(std::string_view line, bool* quit = nullptr)
      CROWD_EXCLUDES(mu_);

  /// Typed entry points (used by tests and the bench harness; the
  /// protocol handlers above are thin wrappers over these). Ingest is
  /// a RESP run of one. On success it sets `*seq` (when non-null) to
  /// the seq the response was journaled under, or to the current seq
  /// for a no-op re-submission, read under the same lock that applied
  /// it.
  Status Ingest(data::WorkerId worker, data::TaskId task,
                data::Response value, uint64_t* seq = nullptr)
      CROWD_EXCLUDES(mu_);
  /// Evaluate and EvaluateAll are refused once the journal has failed:
  /// Evaluate returns the error, EvaluateAll reports it as every
  /// worker's failure.
  Result<core::WorkerAssessment> Evaluate(data::WorkerId worker)
      CROWD_EXCLUDES(mu_);
  core::MWorkerResult EvaluateAll() CROWD_EXCLUDES(mu_);
  /// Writes a snapshot, compacts the journal behind it and deletes
  /// superseded snapshots. Returns the covered seq.
  Result<uint64_t> TakeSnapshot() CROWD_EXCLUDES(mu_);

  /// Seq of the last accepted response (0 before any).
  uint64_t last_seq() const CROWD_EXCLUDES(mu_);
  size_t num_workers() const CROWD_EXCLUDES(mu_);
  size_t num_tasks() const CROWD_EXCLUDES(mu_);

  /// \brief The service's own metric registry. Unlike the process-wide
  /// gate, these series always count (STATS must work without
  /// EnableMetrics), and a per-instance registry keeps concurrently
  /// opened services (tests) from sharing counters. The socket layer
  /// registers its connection series here too.
  obs::Registry& metrics_registry() { return metrics_; }

  /// \brief The METRICS reply body: this service's registry rendered
  /// as Prometheus text, followed by the process-wide registry when
  /// EnableMetrics() is on, terminated by a `# EOF` line.
  std::string MetricsExposition() const;

 private:
  /// Lock-free registry handles, resolved once at construction. STATS
  /// and the SNAPSHOT reply read them directly.
  struct Counters {
    obs::Counter* ingested;
    obs::Counter* noop;
    obs::Counter* rejected;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Counter* eval_all_runs;
    obs::Counter* snapshots_written;
    obs::Counter* recovered_records;
    obs::Counter* recovery_truncated_bytes;
    obs::Gauge* journal_bytes;
    obs::Gauge* journal_records;
    obs::Gauge* snapshot_seq;
    /// crowdeval_server_command_seconds by CommandType; STATS reports
    /// EVAL's and EVAL_ALL's summed time as eval_micros_total.
    std::array<obs::HistogramMetric*, kNumCommandTypes> command_seconds;
  };

  /// The reply to one RESP of a run: its error, or the seq its ack
  /// names.
  struct RespOutcome {
    Status status;
    uint64_t seq = 0;
  };

  explicit Service(ServiceOptions options);

  Status Recover() CROWD_REQUIRES(mu_);
  /// Applies a RESP run and appends its replies, each with a '\n'.
  void ServeRespRun(std::span<const Command> run, std::string* out)
      CROWD_EXCLUDES(mu_);
  /// Applies a RESP run under one acquisition of mu_, filling
  /// `outcomes[i]` for `run[i]`.
  void IngestRun(std::span<const Command> run, RespOutcome* outcomes)
      CROWD_EXCLUDES(mu_);
  /// Journals `pending_` with one Append (and one Sync) and advances
  /// last_seq_ past it. On failure the journal is failed for good and
  /// every outcome in `run` gets the error.
  void CommitPending(std::span<RespOutcome> run) CROWD_REQUIRES(mu_);
  /// The error every verb but STATS, METRICS and QUIT gets once the
  /// journal has failed.
  Status JournalFailedError() const CROWD_REQUIRES(mu_);
  /// EVAL_ALL: the journal's failure, or the assessment of every
  /// worker.
  Result<core::MWorkerResult> EvaluateAllOrRefuse() CROWD_EXCLUDES(mu_);
  /// Every verb but RESP, which runs in runs through IngestRun.
  std::string HandleCommand(const Command& cmd, bool* quit)
      CROWD_EXCLUDES(mu_);
  Result<uint64_t> TakeSnapshotLocked() CROWD_REQUIRES(mu_);
  size_t NumWorkersLocked() const CROWD_REQUIRES(mu_);
  size_t NumTasksLocked() const CROWD_REQUIRES(mu_);

  ServiceOptions options_;
  obs::Registry metrics_;
  Counters counters_;

  mutable util::Mutex mu_;
  /// Set once by Recover and never replaced, so EVAL/EVAL_ALL may keep
  /// the pointer past the capture to run their pass without mu_.
  std::unique_ptr<core::IncrementalEvaluator> evaluator_
      CROWD_GUARDED_BY(mu_);
  std::optional<Journal> journal_ CROWD_GUARDED_BY(mu_);
  uint64_t last_seq_ CROWD_GUARDED_BY(mu_) = 0;
  /// Accepted records of the RESP run being applied, not yet journaled
  /// (seqs last_seq_ + 1, ...); kept to reuse its capacity.
  std::vector<JournalRecord> pending_ CROWD_GUARDED_BY(mu_);
  /// The first failed journal write or sync; OK while none has failed.
  Status journal_failure_ CROWD_GUARDED_BY(mu_);
};

}  // namespace crowd::server

#endif  // CROWD_SERVER_SERVICE_H_
