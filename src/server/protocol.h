// The crowdevald wire protocol: newline-delimited text commands in,
// JSON lines out. Shared between the daemon, the in-process Service,
// and the crowdeval CLI's --format=json mode (so batch CLI output and
// daemon answers carry the same schema).
//
// Command grammar (one command per line, tokens separated by spaces or
// tabs, commands case-sensitive):
//
//   command := "RESP" worker task value   -- record a response
//            | "EVAL" worker              -- assess one worker
//            | "EVAL_ALL"                 -- assess every worker
//            | "SPAMMERS"                 -- majority-vote spam filter
//            | "STATS"                    -- service counters
//            | "METRICS"                  -- Prometheus text exposition
//            | "SNAPSHOT"                 -- force snapshot + compaction
//            | "QUIT"                     -- close the connection
//
// Every reply is exactly one JSON object on one line, `{"ok":true,...}`
// on success and `{"ok":false,"code":...,"error":...}` on failure.
// util/json.h writes each reply into one buffer, doubles in the bytes
// of printf's %.17g (std::to_chars), enough to round-trip bit-exactly
// (non-finite ones are `null`), so tests compare daemon output against
// a batch run for equality.
//
// METRICS is the one exception to one-line replies: it returns the
// Prometheus text exposition (many lines) terminated by a line reading
// exactly `# EOF`, so line-oriented clients know where the scrape ends.

#ifndef CROWD_SERVER_PROTOCOL_H_
#define CROWD_SERVER_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/kary_estimator.h"
#include "core/m_worker.h"
#include "core/types.h"
#include "util/result.h"

namespace crowd::server {

enum class CommandType {
  kResp,
  kEval,
  kEvalAll,
  kSpammers,
  kStats,
  kMetrics,
  kSnapshot,
  kQuit,
};

/// The number of CommandType values (kQuit is the last).
inline constexpr size_t kNumCommandTypes =
    static_cast<size_t>(CommandType::kQuit) + 1;

/// \brief A parsed protocol command.
struct Command {
  CommandType type = CommandType::kQuit;
  data::WorkerId worker = 0;
  data::TaskId task = 0;
  data::Response value = 0;
};

/// The verb of `type` as a client sends it ("RESP", "EVAL_ALL", ...).
const char* CommandName(CommandType type);

/// \brief Parses one protocol line (without the trailing newline).
Result<Command> ParseCommand(std::string_view line);

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view text);

/// A double as a JSON number that round-trips bit-exactly.
std::string JsonDouble(double v);

/// One worker assessment as a JSON object.
std::string AssessmentJson(const core::WorkerAssessment& a);
/// Appends AssessmentJson(a) to `*out`.
void AppendAssessmentJson(std::string* out, const core::WorkerAssessment& a);

/// One per-worker failure as a JSON object.
std::string FailureJson(data::WorkerId worker, const Status& status);

/// `"assessments":[...],"failures":[...]` — the shared body of the
/// daemon's EVAL_ALL reply and the CLI's evaluate --format=json output.
std::string MWorkerResultBodyJson(const core::MWorkerResult& result);
/// Appends MWorkerResultBodyJson(result) to `*out`.
void AppendMWorkerResultBodyJson(std::string* out,
                                 const core::MWorkerResult& result);

/// The CLI evaluate --format=json document (assessments, failures and
/// removed spammers of a CrowdEvaluator::BinaryReport).
std::string BinaryReportJson(const core::CrowdEvaluator::BinaryReport& report);

/// The CLI evaluate-kary --format=json document.
std::string KaryResultJson(const core::KaryResult& result,
                           const std::vector<data::WorkerId>& workers);

/// `{"ok":false,"code":...,"error":...}` for a non-OK status.
std::string ErrorJson(const Status& status);

}  // namespace crowd::server

#endif  // CROWD_SERVER_PROTOCOL_H_
