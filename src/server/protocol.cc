#include "server/protocol.h"

#include <cmath>
#include <cstdio>

#include "util/string_util.h"

namespace crowd::server {

namespace {

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

Status WrongArity(const char* command, size_t want, size_t got) {
  return Status::Invalid(StrFormat("%s takes %zu argument(s), got %zu",
                                   command, want, got));
}

void AppendMWorkerResultBody(std::string* out,
                             const core::MWorkerResult& result) {
  *out += "\"assessments\":";
  AppendJsonArray(out, result.assessments.size(), [&](size_t i) {
    *out += AssessmentJson(result.assessments[i]);
  });
  *out += ",\"failures\":";
  AppendJsonArray(out, result.failures.size(), [&](size_t i) {
    *out += FailureJson(result.failures[i].first, result.failures[i].second);
  });
}

}  // namespace

Result<Command> ParseCommand(std::string_view line) {
  // Tolerate a trailing '\r' from netcat/telnet-style clients.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) return Status::Invalid("empty command");
  std::string_view verb = tokens[0];
  const size_t argc = tokens.size() - 1;
  Command cmd;
  if (verb == "RESP") {
    if (argc != 3) return WrongArity("RESP", 3, argc);
    cmd.type = CommandType::kResp;
    CROWD_ASSIGN_OR_RETURN(cmd.worker, ParseId(tokens[1], "worker id"));
    CROWD_ASSIGN_OR_RETURN(cmd.task, ParseId(tokens[2], "task id"));
    CROWD_ASSIGN_OR_RETURN(size_t value, ParseId(tokens[3], "response"));
    cmd.value = static_cast<data::Response>(value);
    return cmd;
  }
  if (verb == "EVAL") {
    if (argc != 1) return WrongArity("EVAL", 1, argc);
    cmd.type = CommandType::kEval;
    CROWD_ASSIGN_OR_RETURN(cmd.worker, ParseId(tokens[1], "worker id"));
    return cmd;
  }
  struct Nullary {
    std::string_view verb;
    CommandType type;
  };
  static constexpr Nullary kNullary[] = {
      {"EVAL_ALL", CommandType::kEvalAll},
      {"SPAMMERS", CommandType::kSpammers},
      {"STATS", CommandType::kStats},
      {"METRICS", CommandType::kMetrics},
      {"SNAPSHOT", CommandType::kSnapshot},
      {"QUIT", CommandType::kQuit},
  };
  for (const Nullary& n : kNullary) {
    if (verb == n.verb) {
      if (argc != 0) return WrongArity(std::string(n.verb).c_str(), 0, argc);
      cmd.type = n.type;
      return cmd;
    }
  }
  return Status::Invalid("unknown command: " + std::string(verb));
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  // %.17g is the shortest printf precision that round-trips every
  // finite double; non-finite values have no JSON literal, so they are
  // emitted as null.
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

std::string AssessmentJson(const core::WorkerAssessment& a) {
  return StrFormat(
      "{\"worker\":%zu,\"error_rate\":%s,\"deviation\":%s,"
      "\"interval\":{\"lo\":%s,\"hi\":%s,\"confidence\":%s},"
      "\"num_triples\":%zu,\"any_clamped\":%s}",
      a.worker, JsonDouble(a.error_rate).c_str(),
      JsonDouble(a.deviation).c_str(), JsonDouble(a.interval.lo).c_str(),
      JsonDouble(a.interval.hi).c_str(),
      JsonDouble(a.interval.confidence).c_str(), a.num_triples,
      a.any_clamped ? "true" : "false");
}

std::string FailureJson(data::WorkerId worker, const Status& status) {
  return StrFormat("{\"worker\":%zu,\"code\":\"%s\",\"error\":\"%s\"}",
                   worker,
                   JsonEscape(StatusCodeToString(status.code())).c_str(),
                   JsonEscape(status.message()).c_str());
}

std::string MWorkerResultBodyJson(const core::MWorkerResult& result) {
  std::string out;
  AppendMWorkerResultBody(&out, result);
  return out;
}

std::string BinaryReportJson(
    const core::CrowdEvaluator::BinaryReport& report) {
  std::string out = "{\"ok\":true,";
  AppendMWorkerResultBody(&out, report);
  out += ",\"removed_spammers\":";
  AppendJsonArray(&out, report.removed_spammers.size(), [&](size_t i) {
    out += std::to_string(report.removed_spammers[i]);
  });
  out += '}';
  return out;
}

std::string KaryResultJson(const core::KaryResult& result,
                           const std::vector<data::WorkerId>& workers) {
  std::string out = "{\"ok\":true,\"workers\":";
  AppendJsonArray(&out, result.workers.size(), [&](size_t idx) {
    const core::KaryWorkerEstimate& est = result.workers[idx];
    out += StrFormat("{\"worker\":%zu,\"p\":",
                     idx < workers.size() ? workers[idx] : idx);
    AppendJsonArray(&out, est.p.rows(), [&](size_t r) {
      AppendJsonArray(&out, est.p.cols(),
                      [&](size_t c) { out += JsonDouble(est.p(r, c)); });
    });
    out += ",\"intervals\":";
    AppendJsonArray(&out, est.intervals.size(), [&](size_t r) {
      AppendJsonArray(&out, est.intervals[r].size(), [&](size_t c) {
        const stats::ConfidenceInterval& ci = est.intervals[r][c];
        out += StrFormat("{\"lo\":%s,\"hi\":%s,\"confidence\":%s}",
                         JsonDouble(ci.lo).c_str(), JsonDouble(ci.hi).c_str(),
                         JsonDouble(ci.confidence).c_str());
      });
    });
    out += '}';
  });
  out += ",\"selectivity\":";
  AppendJsonArray(&out, result.selectivity.size(), [&](size_t i) {
    out += JsonDouble(result.selectivity[i]);
  });
  out += StrFormat(",\"rotations_used\":%d}", result.rotations_used);
  return out;
}

std::string ErrorJson(const Status& status) {
  return StrFormat("{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}",
                   JsonEscape(StatusCodeToString(status.code())).c_str(),
                   JsonEscape(status.message()).c_str());
}

}  // namespace crowd::server
