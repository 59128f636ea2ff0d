// The snprintf serializers that util/json.h replaced, kept as the
// oracle for byte identity: every reply, exposition line, trace event
// and JSON log line the writer produces must equal what these produce,
// byte for byte. They are the old code paths, one printf format per
// number: %.17g for JSON doubles, %g for Prometheus bucket bounds,
// %.3f for chrome-trace times and %.6f for log timestamps. Header-only
// and free of gtest, so the fuzz harnesses include it too.

#ifndef CROWD_TESTS_JSON_REFERENCE_H_
#define CROWD_TESTS_JSON_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.h"
#include "core/kary_estimator.h"
#include "core/m_worker.h"
#include "core/types.h"
#include "obs/trace.h"
#include "util/status.h"

namespace crowd {

/// printf into a std::string.
template <typename... Args>
std::string ReferenceFormat(const char* fmt, Args... args) {
  char buffer[512];
  const int n = std::snprintf(buffer, sizeof(buffer), fmt, args...);
  if (n < 0) return "";
  if (static_cast<size_t>(n) < sizeof(buffer)) {
    return std::string(buffer, static_cast<size_t>(n));
  }
  std::string out(static_cast<size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, fmt, args...);
  return out;
}

// ---- server/protocol.h ----------------------------------------------

inline std::string ReferenceJsonEscape(std::string_view text) {
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
          out += ReferenceFormat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string ReferenceJsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  return ReferenceFormat("%.17g", v);
}

inline std::string ReferenceAssessmentJson(const core::WorkerAssessment& a) {
  return ReferenceFormat(
      "{\"worker\":%zu,\"error_rate\":%s,\"deviation\":%s,"
      "\"interval\":{\"lo\":%s,\"hi\":%s,\"confidence\":%s},"
      "\"num_triples\":%zu,\"any_clamped\":%s}",
      a.worker, ReferenceJsonDouble(a.error_rate).c_str(),
      ReferenceJsonDouble(a.deviation).c_str(),
      ReferenceJsonDouble(a.interval.lo).c_str(),
      ReferenceJsonDouble(a.interval.hi).c_str(),
      ReferenceJsonDouble(a.interval.confidence).c_str(), a.num_triples,
      a.any_clamped ? "true" : "false");
}

inline std::string ReferenceFailureJson(data::WorkerId worker,
                                        const Status& status) {
  return ReferenceFormat(
      "{\"worker\":%zu,\"code\":\"%s\",\"error\":\"%s\"}", worker,
      ReferenceJsonEscape(StatusCodeToString(status.code())).c_str(),
      ReferenceJsonEscape(status.message()).c_str());
}

template <typename AppendElement>
void ReferenceAppendJsonArray(std::string* out, size_t count,
                              const AppendElement& append_element) {
  *out += '[';
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) *out += ',';
    append_element(i);
  }
  *out += ']';
}

inline std::string ReferenceMWorkerResultBodyJson(
    const core::MWorkerResult& result) {
  std::string out = "\"assessments\":";
  ReferenceAppendJsonArray(&out, result.assessments.size(), [&](size_t i) {
    out += ReferenceAssessmentJson(result.assessments[i]);
  });
  out += ",\"failures\":";
  ReferenceAppendJsonArray(&out, result.failures.size(), [&](size_t i) {
    out += ReferenceFailureJson(result.failures[i].first,
                                result.failures[i].second);
  });
  return out;
}

inline std::string ReferenceBinaryReportJson(
    const core::CrowdEvaluator::BinaryReport& report) {
  std::string out = "{\"ok\":true,";
  out += ReferenceMWorkerResultBodyJson(report);
  out += ",\"removed_spammers\":";
  ReferenceAppendJsonArray(&out, report.removed_spammers.size(),
                           [&](size_t i) {
                             out += std::to_string(report.removed_spammers[i]);
                           });
  out += '}';
  return out;
}

inline std::string ReferenceKaryResultJson(
    const core::KaryResult& result,
    const std::vector<data::WorkerId>& workers) {
  std::string out = "{\"ok\":true,\"workers\":";
  ReferenceAppendJsonArray(&out, result.workers.size(), [&](size_t idx) {
    const core::KaryWorkerEstimate& est = result.workers[idx];
    out += ReferenceFormat("{\"worker\":%zu,\"p\":",
                           idx < workers.size() ? workers[idx] : idx);
    ReferenceAppendJsonArray(&out, est.p.rows(), [&](size_t r) {
      ReferenceAppendJsonArray(&out, est.p.cols(), [&](size_t c) {
        out += ReferenceJsonDouble(est.p(r, c));
      });
    });
    out += ",\"intervals\":";
    ReferenceAppendJsonArray(&out, est.intervals.size(), [&](size_t r) {
      ReferenceAppendJsonArray(&out, est.intervals[r].size(), [&](size_t c) {
        const stats::ConfidenceInterval& ci = est.intervals[r][c];
        out += ReferenceFormat("{\"lo\":%s,\"hi\":%s,\"confidence\":%s}",
                               ReferenceJsonDouble(ci.lo).c_str(),
                               ReferenceJsonDouble(ci.hi).c_str(),
                               ReferenceJsonDouble(ci.confidence).c_str());
      });
    });
    out += '}';
  });
  out += ",\"selectivity\":";
  ReferenceAppendJsonArray(&out, result.selectivity.size(), [&](size_t i) {
    out += ReferenceJsonDouble(result.selectivity[i]);
  });
  out += ReferenceFormat(",\"rotations_used\":%d}", result.rotations_used);
  return out;
}

inline std::string ReferenceErrorJson(const Status& status) {
  return ReferenceFormat(
      "{\"ok\":false,\"code\":\"%s\",\"error\":\"%s\"}",
      ReferenceJsonEscape(StatusCodeToString(status.code())).c_str(),
      ReferenceJsonEscape(status.message()).c_str());
}

// ---- server/service.cc replies --------------------------------------

inline std::string ReferenceRespReply(uint64_t seq) {
  return ReferenceFormat("{\"ok\":true,\"seq\":%llu}",
                         static_cast<unsigned long long>(seq));
}

inline std::string ReferenceSnapshotReply(uint64_t seq,
                                          int64_t journal_bytes) {
  return ReferenceFormat(
      "{\"ok\":true,\"snapshot_seq\":%llu,\"journal_bytes\":%lld}",
      static_cast<unsigned long long>(seq),
      static_cast<long long>(journal_bytes));
}

/// `proxy_error` is indexed by worker id, as FilterSpammers returns it.
inline std::string ReferenceSpammersReply(
    double threshold, const std::vector<data::WorkerId>& removed,
    const std::vector<double>& proxy_error) {
  std::string out =
      ReferenceFormat("{\"ok\":true,\"threshold\":%s,\"spammers\":",
                      ReferenceJsonDouble(threshold).c_str());
  ReferenceAppendJsonArray(&out, removed.size(), [&](size_t i) {
    const data::WorkerId w = removed[i];
    out += ReferenceFormat("{\"worker\":%zu,\"proxy_error\":%s}", w,
                           ReferenceJsonDouble(proxy_error[w]).c_str());
  });
  out += '}';
  return out;
}

/// The values a STATS reply carries, in reply order.
struct ReferenceStats {
  size_t num_workers = 0;
  size_t num_tasks = 0;
  size_t total_responses = 0;
  uint64_t last_seq = 0;
  size_t dirty_workers = 0;
  uint64_t responses_ingested = 0;
  uint64_t responses_noop = 0;
  uint64_t responses_rejected = 0;
  uint64_t eval_cache_hits = 0;
  uint64_t eval_cache_misses = 0;
  uint64_t eval_all_runs = 0;
  double eval_micros_total = 0.0;
  int64_t journal_bytes = 0;
  int64_t journal_records = 0;
  uint64_t snapshots_written = 0;
  int64_t snapshot_seq = 0;
  uint64_t recovered_records = 0;
  uint64_t recovery_truncated_bytes = 0;
};

inline std::string ReferenceStatsReply(const ReferenceStats& s) {
  return ReferenceFormat(
      "{\"ok\":true,\"stats\":{"
      "\"num_workers\":%zu,\"num_tasks\":%zu,"
      "\"total_responses\":%zu,\"last_seq\":%llu,"
      "\"dirty_workers\":%zu,"
      "\"responses_ingested\":%llu,\"responses_noop\":%llu,"
      "\"responses_rejected\":%llu,"
      "\"eval_cache_hits\":%llu,\"eval_cache_misses\":%llu,"
      "\"eval_all_runs\":%llu,\"eval_micros_total\":%s,"
      "\"journal_bytes\":%lld,\"journal_records\":%lld,"
      "\"snapshots_written\":%llu,\"snapshot_seq\":%lld,"
      "\"recovered_records\":%llu,"
      "\"recovery_truncated_bytes\":%llu}}",
      s.num_workers, s.num_tasks, s.total_responses,
      static_cast<unsigned long long>(s.last_seq), s.dirty_workers,
      static_cast<unsigned long long>(s.responses_ingested),
      static_cast<unsigned long long>(s.responses_noop),
      static_cast<unsigned long long>(s.responses_rejected),
      static_cast<unsigned long long>(s.eval_cache_hits),
      static_cast<unsigned long long>(s.eval_cache_misses),
      static_cast<unsigned long long>(s.eval_all_runs),
      ReferenceJsonDouble(s.eval_micros_total).c_str(),
      static_cast<long long>(s.journal_bytes),
      static_cast<long long>(s.journal_records),
      static_cast<unsigned long long>(s.snapshots_written),
      static_cast<long long>(s.snapshot_seq),
      static_cast<unsigned long long>(s.recovered_records),
      static_cast<unsigned long long>(s.recovery_truncated_bytes));
}

// ---- obs/metrics.cc: the Prometheus exposition ----------------------

/// A sample value: NaN, +Inf and -Inf in Prometheus spelling.
inline std::string ReferencePrometheusDouble(double v) {
  if (v != v) return "NaN";
  if (v == std::numeric_limits<double>::infinity()) return "+Inf";
  if (v == -std::numeric_limits<double>::infinity()) return "-Inf";
  return ReferenceFormat("%.17g", v);
}

/// A bucket bound (the `le` label value).
inline std::string ReferencePrometheusBound(double v) {
  return ReferenceFormat("%g", v);
}

/// The sample lines of one histogram series: `labels` is the rendered
/// label set (`key="value"`, or empty), `buckets` the per-bucket
/// counts, the last one the overflow bucket.
inline std::string ReferenceHistogramSeries(
    const std::string& name, const std::string& labels,
    const std::vector<double>& bounds, const std::vector<uint64_t>& buckets,
    double sum) {
  const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
  std::string out;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    cumulative += buckets[b];
    const std::string le = b < bounds.size()
                               ? ReferencePrometheusBound(bounds[b])
                               : std::string("+Inf");
    const std::string bucket_labels =
        labels.empty() ? "le=\"" + le + "\"" : labels + ",le=\"" + le + "\"";
    out += name + "_bucket{" + bucket_labels +
           ReferenceFormat("} %llu\n",
                           static_cast<unsigned long long>(cumulative));
  }
  out += name + "_sum" + suffix + " " + ReferencePrometheusDouble(sum) + "\n";
  out += name + "_count" + suffix +
         ReferenceFormat(" %llu\n",
                         static_cast<unsigned long long>(cumulative));
  return out;
}

// ---- obs/trace.cc ---------------------------------------------------

inline std::string ReferenceChromeTraceJson(
    const std::vector<obs::TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  char buffer[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  i == 0 ? "" : ",", e.name, e.tid,
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.duration_ns) / 1e3);
    out += buffer;
  }
  out += "]}";
  return out;
}

// ---- util/logging.cc: the JSON log mode -----------------------------

/// `level_name` is the level as the line spells it (WARN, ERROR, ...).
inline std::string ReferenceJsonLogLine(const char* level_name,
                                        const char* file, int line,
                                        const std::string& message,
                                        double ts_seconds) {
  const char* slash = std::strrchr(file, '/');
  const char* base = slash != nullptr ? slash + 1 : file;
  char buffer[64];
  std::string out = "{\"ts\":";
  std::snprintf(buffer, sizeof(buffer), "%.6f", ts_seconds);
  out += buffer;
  out += ",\"level\":\"";
  out += level_name;
  out += "\",\"src\":\"";
  std::snprintf(buffer, sizeof(buffer), "%s:%d", base, line);
  out += ReferenceJsonEscape(buffer);
  out += "\",\"msg\":\"";
  out += ReferenceJsonEscape(message);
  out += "\"}\n";
  return out;
}

}  // namespace crowd

#endif  // CROWD_TESTS_JSON_REFERENCE_H_
