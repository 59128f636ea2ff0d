#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

// Header-only, no crowd_* link dependency — safe below crowd_util.
#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crowd::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// \brief A bounded per-thread span ring. Owned by a thread_local
/// handle; ownership moves to the global retired list when the thread
/// exits, so its spans survive for export.
struct SpanRing {
  explicit SpanRing(size_t capacity, uint32_t thread_ordinal)
      : events(capacity), tid(thread_ordinal) {}

  util::Mutex mu;
  std::vector<TraceEvent> events CROWD_GUARDED_BY(mu);
  size_t next CROWD_GUARDED_BY(mu) = 0;
  size_t size CROWD_GUARDED_BY(mu) = 0;
  uint32_t tid = 0;

  void Append(const TraceEvent& event) CROWD_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    if (events.empty()) return;
    events[next] = event;
    next = (next + 1) % events.size();
    if (size < events.size()) ++size;
  }

  void SnapshotInto(std::vector<TraceEvent>* out) CROWD_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    // Oldest-first: the ring wraps at `next` when full.
    const size_t start = size == events.size() ? next : 0;
    for (size_t i = 0; i < size; ++i) {
      out->push_back(events[(start + i) % events.size()]);
    }
  }

  void Clear() CROWD_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    next = 0;
    size = 0;
  }
};

struct TraceState {
  util::Mutex mu;
  std::vector<SpanRing*> live CROWD_GUARDED_BY(mu);
  std::vector<std::unique_ptr<SpanRing>> retired CROWD_GUARDED_BY(mu);
  size_t capacity CROWD_GUARDED_BY(mu) = 8192;
  uint32_t next_tid CROWD_GUARDED_BY(mu) = 0;
  // Written only by StartTracing and read lock-free on the span hot
  // path; a torn read is impossible in practice (monotonic clock
  // rebase) and annotating it would put a lock on every TraceNowNanos.
  Clock::time_point epoch = Clock::now();
};

TraceState& State() {
  static TraceState* const state = new TraceState();
  return *state;
}

/// Thread-exit hook: moves this thread's ring to the retired list.
struct RingHandle {
  std::unique_ptr<SpanRing> ring;

  ~RingHandle() {
    if (!ring) return;
    TraceState& state = State();
    util::MutexLock lock(state.mu);
    for (size_t i = 0; i < state.live.size(); ++i) {
      if (state.live[i] == ring.get()) {
        state.live.erase(state.live.begin() + static_cast<long>(i));
        break;
      }
    }
    state.retired.push_back(std::move(ring));
  }
};

SpanRing& ThisThreadRing() {
  thread_local RingHandle handle;
  if (!handle.ring) {
    TraceState& state = State();
    util::MutexLock lock(state.mu);
    handle.ring = std::make_unique<SpanRing>(state.capacity,
                                             state.next_tid++);
    state.live.push_back(handle.ring.get());
  }
  return *handle.ring;
}

}  // namespace

namespace internal {

std::atomic<bool> g_tracing_enabled{false};

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns) {
  // A span that straddles StopTracing still records — the ring exists
  // and the event is complete; exports are snapshots anyway.
  SpanRing& ring = ThisThreadRing();
  TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.duration_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  event.tid = ring.tid;
  ring.Append(event);
}

}  // namespace internal

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           State().epoch)
          .count());
}

void StartTracing(size_t events_per_thread) {
  TraceState& state = State();
  {
    util::MutexLock lock(state.mu);
    state.capacity = events_per_thread == 0 ? 1 : events_per_thread;
    state.retired.clear();
    state.epoch = Clock::now();
    // Live rings keep their original capacity (resizing under a
    // recording thread would race); they are cleared so the dump
    // holds only post-StartTracing spans.
    for (SpanRing* ring : state.live) ring->Clear();
  }
  internal::g_tracing_enabled.store(true, std::memory_order_release);
}

void StopTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_release);
}

bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}

std::string ChromeTraceJson() {
  std::vector<TraceEvent> events;
  TraceState& state = State();
  {
    util::MutexLock lock(state.mu);
    for (SpanRing* ring : state.live) ring->SnapshotInto(&events);
    for (const auto& ring : state.retired) ring->SnapshotInto(&events);
  }
  return ChromeTraceJson(events);
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":";
  json::AppendArray(&out, events.size(), [&](size_t i) {
    const TraceEvent& e = events[i];
    // Chrome trace times are microseconds, printed to the nanosecond.
    json::Append(&out, "{\"name\":", json::Quoted{e.name},
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":", e.tid, ",\"ts\":");
    json::AppendChars(&out, static_cast<double>(e.start_ns) / 1e3,
                      std::chars_format::fixed, 3);
    out += ",\"dur\":";
    json::AppendChars(&out, static_cast<double>(e.duration_ns) / 1e3,
                      std::chars_format::fixed, 3);
    out += '}';
  });
  out += '}';
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = ChromeTraceJson();
  const bool ok =
      std::fwrite(json.data(), 1, json.size(), file) == json.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace crowd::obs
