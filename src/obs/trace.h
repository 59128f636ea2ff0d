// Scoped-span tracer: CROWD_SPAN("stage") records the enclosing
// scope's wall time into a bounded per-thread ring buffer, exportable
// as chrome://tracing / Perfetto JSON ("trace event format", complete
// "X" events).
//
// Cost model: when tracing is disabled (the default) a span is one
// relaxed atomic load and a branch. When enabled, entry reads the
// steady clock and exit appends one 32-byte event to a thread-local
// ring under that ring's (uncontended) mutex — the mutex exists only
// so an exporter can snapshot rings of live threads safely. The ring
// overwrites its oldest events, so memory stays bounded at
// `events_per_thread` regardless of run length.
//
// Span names must be string literals (the ring stores the pointer).
// Tracing never branches on measured values, so enabling it cannot
// change any computed result.

#ifndef CROWD_OBS_TRACE_H_
#define CROWD_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace crowd::obs {

/// \brief One completed span (chrome "X" event).
struct TraceEvent {
  const char* name = nullptr;  ///< string literal
  uint64_t start_ns = 0;       ///< since StartTracing()
  uint64_t duration_ns = 0;
  uint32_t tid = 0;  ///< small per-thread ordinal
};

/// Nanoseconds on the tracing clock (steady, zero at StartTracing).
uint64_t TraceNowNanos();

/// \brief Starts recording spans. Rings of previously-traced threads
/// are cleared; `events_per_thread` bounds each ring (later threads
/// inherit the same capacity).
void StartTracing(size_t events_per_thread = 8192);
/// Stops recording (already-captured events stay exportable).
void StopTracing();
bool TracingEnabled();

/// \brief All captured events as a chrome://tracing JSON document
/// ({"traceEvents":[...]}). Safe to call while tracing.
std::string ChromeTraceJson();
/// The same document for the given events.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// \brief Writes ChromeTraceJson() to `path`; returns false (and
/// keeps quiet) on I/O failure — the caller decides whether to log.
bool WriteChromeTrace(const std::string& path);

namespace internal {

extern std::atomic<bool> g_tracing_enabled;

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns);

}  // namespace internal

/// \brief RAII span; use via CROWD_SPAN.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (internal::g_tracing_enabled.load(std::memory_order_relaxed)) {
      name_ = name;
      start_ns_ = TraceNowNanos();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, start_ns_, TraceNowNanos());
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
};

}  // namespace crowd::obs

#define CROWD_SPAN_CONCAT_INNER(a, b) a##b
#define CROWD_SPAN_CONCAT(a, b) CROWD_SPAN_CONCAT_INNER(a, b)
/// Records the enclosing scope as a span named `name` (string literal).
#define CROWD_SPAN(name) \
  ::crowd::obs::ScopedSpan CROWD_SPAN_CONCAT(crowd_span_, __LINE__)(name)

#endif  // CROWD_OBS_TRACE_H_
