// Pieces shared by the stream workloads and the traced run: the seeded
// stream, pre-rendered protocol lines and the per-connection drivers.

#ifndef PERFBENCH_STREAM_COMMON_H_
#define PERFBENCH_STREAM_COMMON_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "crowds.h"
#include "daemon.h"

namespace perfbench {

/// Protocol lines stored back to back, so a pipelined batch is one
/// contiguous send.
class LineBatch {
 public:
  void Add(std::string_view line) {
    offsets_.push_back(bytes_.size());
    bytes_.append(line);
  }
  size_t size() const { return offsets_.size(); }
  std::string_view Range(size_t begin, size_t end) const {
    const size_t from = offsets_[begin];
    const size_t to = end < offsets_.size() ? offsets_[end] : bytes_.size();
    return std::string_view(bytes_).substr(from, to - from);
  }
  std::string_view Line(size_t i) const { return Range(i, i + 1); }

 private:
  std::string bytes_;
  std::vector<size_t> offsets_;
};

/// A binary crowd whose first half of tasks sits in a daemon data
/// directory (snapshot + journal tail); the second half is split
/// between two writers that own disjoint halves of the workers.
struct SeededStream {
  BinaryCrowd crowd;
  size_t snapshot_tasks = 0;
  size_t seeded_tasks = 0;
  std::string seed_dir;
  uint64_t seed_dir_bytes = 0;
  uint64_t tail_records = 0;
  uint64_t seeded_cells = 0;
  std::vector<Cell> writer_cells[2];
  LineBatch writer_lines[2];
};

SeededStream MakeSeededStream(size_t workers, size_t tasks, uint64_t seed,
                              const std::string& run_dir);

/// Spawns crowdevald on a fresh copy of the seeded directory and checks
/// that it recovered exactly the seeded state.
std::unique_ptr<Daemon> StartOnFreshCopy(const Options& options,
                                         const SeededStream& s,
                                         const std::string& dir,
                                         Report* report);

/// Reply accounting shared by both connection drivers.
struct ReplyLog {
  std::vector<uint64_t> seqs;
  uint64_t acked_ok = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void AckReply(const std::string& reply);
  /// Attempts `planned` operations on `tally` and fails the `ok:false`
  /// replies and the requests that got no reply.
  void ReportFailures(Tally* tally, size_t planned) const;
};

struct ConnectionResult : ReplyLog {
  std::vector<double> latency_us;  ///< one per reply, in order
  Clock::time_point start, end;
};

struct Scheduled {
  enum Kind { kResp, kEval, kEvalAll };
  double due = 0.0;  ///< seconds after t0
  size_t line = 0;   ///< index into the connection's LineBatch
  Kind kind = kResp;
};

struct OpenLoopResult : ReplyLog {
  std::vector<double> late_us;  ///< how late each send left
  std::vector<double> sent_s;   ///< actual send, seconds after t0
  std::vector<double> reply_s;  ///< reply arrival, seconds after t0
};

/// Sends `plan` on one connection at its scheduled times (a sender
/// thread) while this thread reads the replies.
void OpenLoopConnection(const std::string& socket_path, Clock::time_point t0,
                        const std::vector<Scheduled>& plan,
                        const LineBatch& lines, OpenLoopResult* out);

/// Closed-loop pipelined writer: keeps between 8 and 16 RESPs
/// outstanding, refilling in batches of 8.
void ClosedLoopWriter(const std::string& socket_path, const LineBatch& lines,
                      ConnectionResult* out);

/// The mixed workload's open-loop schedule: two writers at
/// kMixedRespPerS in total, and one reader sending EVAL of a random
/// worker at kMixedEvalPerS plus EVAL_ALL every kMixedEvalAllPeriodS.
struct MixedPlan {
  std::vector<Scheduled> writer[2];
  std::vector<Scheduled> reader;  ///< sorted by due time
  LineBatch reader_lines;
};
MixedPlan BuildMixedPlan(const SeededStream& s, double seconds, uint64_t seed);

/// Sorts `seqs` and returns how many acks repeat an earlier ack's seq.
uint64_t CountDuplicates(std::vector<uint64_t>* seqs);

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_COMMON_H_
