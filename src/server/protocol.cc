#include "server/protocol.h"

#include "util/json.h"
#include "util/string_util.h"

namespace crowd::server {

namespace {

// The verbs, indexed by CommandType.
constexpr const char* kCommandNames[] = {"RESP",     "EVAL",  "EVAL_ALL",
                                         "SPAMMERS", "STATS", "METRICS",
                                         "SNAPSHOT", "QUIT"};
static_assert(std::size(kCommandNames) == kNumCommandTypes);

/// Splits on runs of spaces/tabs, dropping empty tokens.
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Result<size_t> ParseId(std::string_view token, const char* what) {
  auto value = ParseInt(token);
  if (!value.ok() || *value < 0) {
    return Status::Invalid(StrFormat("%s must be a non-negative integer, "
                                     "got \"%.*s\"",
                                     what, static_cast<int>(token.size()),
                                     token.data()));
  }
  return static_cast<size_t>(*value);
}

void AppendFailure(std::string* out, data::WorkerId worker,
                   const Status& status) {
  json::Append(out, "{\"worker\":", worker, ",\"code\":",
               json::Quoted{StatusCodeToString(status.code())},
               ",\"error\":", json::Quoted{status.message()}, "}");
}

}  // namespace

const char* CommandName(CommandType type) {
  return kCommandNames[static_cast<size_t>(type)];
}

Result<Command> ParseCommand(std::string_view line) {
  // Tolerate a trailing '\r' from netcat/telnet-style clients.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) return Status::Invalid("empty command");
  size_t type = 0;
  while (type < kNumCommandTypes && tokens[0] != kCommandNames[type]) ++type;
  if (type == kNumCommandTypes) {
    return Status::Invalid("unknown command: " + std::string(tokens[0]));
  }
  Command cmd;
  cmd.type = static_cast<CommandType>(type);
  // RESP takes a worker, a task and a response, EVAL a worker, and the
  // other verbs nothing.
  const size_t arity = cmd.type == CommandType::kResp   ? 3
                       : cmd.type == CommandType::kEval ? 1
                                                        : 0;
  if (tokens.size() - 1 != arity) {
    return Status::Invalid(StrFormat("%s takes %zu argument(s), got %zu",
                                     kCommandNames[type], arity,
                                     tokens.size() - 1));
  }
  if (arity > 0) {
    CROWD_ASSIGN_OR_RETURN(cmd.worker, ParseId(tokens[1], "worker id"));
  }
  if (arity > 1) {
    CROWD_ASSIGN_OR_RETURN(cmd.task, ParseId(tokens[2], "task id"));
    CROWD_ASSIGN_OR_RETURN(size_t value, ParseId(tokens[3], "response"));
    cmd.value = static_cast<data::Response>(value);
  }
  return cmd;
}

void AppendAssessmentJson(std::string* out,
                          const core::WorkerAssessment& a) {
  json::Append(out, "{\"worker\":", a.worker, ",\"error_rate\":", a.error_rate,
               ",\"deviation\":", a.deviation, ",\"interval\":{\"lo\":",
               a.interval.lo, ",\"hi\":", a.interval.hi, ",\"confidence\":",
               a.interval.confidence, "},\"num_triples\":", a.num_triples,
               ",\"any_clamped\":", a.any_clamped, "}");
}

void AppendMWorkerResultBodyJson(std::string* out,
                                 const core::MWorkerResult& result) {
  *out += "\"assessments\":";
  json::AppendArray(out, result.assessments.size(), [&](size_t i) {
    AppendAssessmentJson(out, result.assessments[i]);
  });
  *out += ",\"failures\":";
  json::AppendArray(out, result.failures.size(), [&](size_t i) {
    AppendFailure(out, result.failures[i].first, result.failures[i].second);
  });
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  json::AppendEscaped(&out, text);
  return out;
}

std::string JsonDouble(double v) {
  std::string out;
  json::Append(&out, v);
  return out;
}

std::string AssessmentJson(const core::WorkerAssessment& a) {
  std::string out;
  AppendAssessmentJson(&out, a);
  return out;
}

std::string FailureJson(data::WorkerId worker, const Status& status) {
  std::string out;
  AppendFailure(&out, worker, status);
  return out;
}

std::string MWorkerResultBodyJson(const core::MWorkerResult& result) {
  std::string out;
  AppendMWorkerResultBodyJson(&out, result);
  return out;
}

std::string BinaryReportJson(
    const core::CrowdEvaluator::BinaryReport& report) {
  std::string out = "{\"ok\":true,";
  AppendMWorkerResultBodyJson(&out, report);
  out += ",\"removed_spammers\":";
  json::AppendArray(&out, report.removed_spammers.size(), [&](size_t i) {
    json::Append(&out, report.removed_spammers[i]);
  });
  out += '}';
  return out;
}

std::string KaryResultJson(const core::KaryResult& result,
                           const std::vector<data::WorkerId>& workers) {
  std::string out = "{\"ok\":true,\"workers\":";
  json::AppendArray(&out, result.workers.size(), [&](size_t idx) {
    const core::KaryWorkerEstimate& est = result.workers[idx];
    json::Append(&out, "{\"worker\":",
                 idx < workers.size() ? workers[idx] : idx, ",\"p\":");
    json::AppendArray(&out, est.p.rows(), [&](size_t r) {
      json::AppendArray(&out, est.p.cols(),
                        [&](size_t c) { json::Append(&out, est.p(r, c)); });
    });
    out += ",\"intervals\":";
    json::AppendArray(&out, est.intervals.size(), [&](size_t r) {
      json::AppendArray(&out, est.intervals[r].size(), [&](size_t c) {
        const stats::ConfidenceInterval& ci = est.intervals[r][c];
        json::Append(&out, "{\"lo\":", ci.lo, ",\"hi\":", ci.hi,
                     ",\"confidence\":", ci.confidence, "}");
      });
    });
    out += '}';
  });
  out += ",\"selectivity\":";
  json::AppendArray(&out, result.selectivity.size(), [&](size_t i) {
    json::Append(&out, result.selectivity[i]);
  });
  json::Append(&out, ",\"rotations_used\":", result.rotations_used, "}");
  return out;
}

std::string ErrorJson(const Status& status) {
  std::string out;
  json::Append(&out, "{\"ok\":false,\"code\":",
               json::Quoted{StatusCodeToString(status.code())},
               ",\"error\":", json::Quoted{status.message()}, "}");
  return out;
}

}  // namespace crowd::server
