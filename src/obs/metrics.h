// Lock-cheap metrics registry: monotonic counters, gauges, and
// fixed-bucket latency histograms with Prometheus text-format export
// and a human-readable summary table.
//
// Hot-path cost model:
//   - Counter::Increment / Gauge::Add / HistogramMetric::Record are a
//     relaxed atomic add on a per-thread *shard* (threads are spread
//     round-robin over kShards cache-line-padded slots), so concurrent
//     writers do not bounce a shared cache line. Aggregation across
//     shards happens only on scrape.
//   - Library instrumentation is gated by MetricsRegistry(), which
//     returns nullptr until EnableMetrics() — the disabled cost of an
//     instrumented site is one relaxed atomic load and a branch.
//     Instrumentation must never branch on *measured values*, so
//     enabling metrics cannot change any computed result (the tier-1
//     determinism guarantee).
//
// Usage pattern for instrumented library code:
//
//   if (obs::Registry* r = obs::MetricsRegistry()) {
//     static obs::Counter* const dropped =
//         r->GetCounter("crowdeval_core_triples_dropped_total",
//                       "triples dropped during worker evaluation");
//     dropped->Increment();
//   }
//
// The function-local static is first initialized on the first pass
// with metrics enabled; metric objects live in the registry and are
// never destroyed before process exit, so the cached pointer stays
// valid even if metrics are later disabled (the site simply stops
// executing the body).
//
// Components that must count regardless of the global switch (the
// crowdevald Service's STATS counters) construct their own Registry
// instance and talk to it directly.
//
// crowd_obs sits at the bottom of the library order (every library
// above it may record metrics), so this header must not include any
// crowd_* header.

#ifndef CROWD_OBS_METRICS_H_
#define CROWD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace crowd::obs {

/// Number of per-thread shards per metric. Threads are assigned
/// round-robin; 16 slots of one cache line each keep concurrent
/// increments from contending at daemon-scale thread counts.
inline constexpr size_t kShards = 16;

/// This thread's shard index (assigned once, round-robin).
size_t ThisThreadShard();

namespace internal {
struct alignas(64) PaddedCounter {
  std::atomic<uint64_t> value{0};
};
/// Relaxed-CAS add for doubles (std::atomic<double>::fetch_add is
/// C++20); contention is already absorbed by the sharding.
void AtomicDoubleAdd(std::atomic<double>* target, double delta);
void AtomicDoubleMin(std::atomic<double>* target, double value);
void AtomicDoubleMax(std::atomic<double>* target, double value);
}  // namespace internal

/// \brief A monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    shards_[ThisThreadShard()].value.fetch_add(delta,
                                               std::memory_order_relaxed);
  }
  /// Sum over all shards (scrape-time aggregation).
  uint64_t Value() const;

 private:
  internal::PaddedCounter shards_[kShards];
};

/// \brief A gauge: an int64 value that can move both ways. Set wins
/// over concurrent Add only by timing — use one style per gauge.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Subtract(int64_t delta) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief A sharded fixed-bucket histogram metric. Snapshot() folds
/// the shards into a plain obs::Histogram, which owns the shared
/// quantile math.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> bounds);

  void Record(double value);
  /// Aggregated view; consistent enough for monitoring (individual
  /// bucket/sum reads are relaxed).
  Histogram Snapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct alignas(64) Shard {
    explicit Shard(size_t num_buckets)
        : buckets(num_buckets) {}
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// \brief Metric registry: owns metrics, hands out stable pointers,
/// exports Prometheus text format. Registration takes a mutex; the
/// returned objects are lock-free to update and valid for the
/// registry's lifetime.
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. `name` must follow the naming scheme
  /// `crowdeval_<module>_<what>[_<unit>][_total]`; `label_key`/
  /// `label_value`, when non-empty, attach one label pair to the
  /// series (e.g. command="RESP"). `help` is kept from the first
  /// registration.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& label_key = "",
                      const std::string& label_value = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& label_key = "",
                  const std::string& label_value = "");
  /// `bounds` applies on creation only (all series of one family must
  /// share buckets); pass Histogram::LatencyBounds() for latencies.
  HistogramMetric* GetHistogram(const std::string& name,
                                const std::string& help,
                                std::vector<double> bounds,
                                const std::string& label_key = "",
                                const std::string& label_value = "");

  /// Prometheus text exposition (families sorted by name, HELP/TYPE
  /// emitted once per family).
  std::string ExportPrometheus() const;

  /// Human-readable table: counters/gauges with values, histograms
  /// with count/mean/p50/p90/p99. Empty string when nothing was
  /// recorded.
  std::string SummaryTable() const;

  /// Distinct metric family names currently registered.
  size_t NumFamilies() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// \brief The process-wide registry singleton (always constructible;
/// never destroyed). Service-level code that must always count talks
/// to this (or to its own Registry instance) directly.
Registry& DefaultRegistry();

/// \brief Gate for library instrumentation: nullptr until
/// EnableMetrics(), then &DefaultRegistry(). One relaxed load.
Registry* MetricsRegistry();

/// Turns library instrumentation on/off (process-global, idempotent).
void EnableMetrics();
void DisableMetrics();
bool MetricsEnabled();

}  // namespace crowd::obs

#endif  // CROWD_OBS_METRICS_H_
